// Package nim is the public API of the Network-in-Memory simulator: a
// reproduction of "Design and Management of 3D Chip Multiprocessors Using
// Network-in-Memory" (Li et al., ISCA 2006).
//
// The library simulates a chip multiprocessor whose large shared L2 cache
// is distributed over a 3D stack of device layers: each layer carries a
// wormhole-switched mesh network-on-chip connecting cache banks, and
// dynamic-TDMA bus "pillars" provide single-hop vertical communication.
// Four L2 organizations are modeled, matching the paper's evaluation:
//
//	CMPDNUCA    — 2D baseline (Beckmann & Wood), edge CPUs, perfect search
//	CMPDNUCA2D  — the paper's 2D scheme: mid-cluster CPUs, two-step search
//	CMPSNUCA3D  — 3D, static placement, no migration
//	CMPDNUCA3D  — 3D with dynamic cache-line migration
//
// Quick start:
//
//	cfg := nim.DefaultConfig(nim.CMPDNUCA3D)
//	bench, _ := nim.BenchmarkByName("mgrid", cfg.NumCPUs)
//	sim, _ := nim.NewSimulation(cfg, bench, 1)
//	sim.Warm(1)
//	sim.Start()
//	sim.Run(50_000)  // settle
//	sim.ResetStats()
//	sim.Run(200_000) // measure
//	fmt.Println(sim.Results().AvgL2HitLatency)
//
// The deeper layers are available under internal/ (noc, dtdma, fabric,
// cache, placement, thermal, power, trace, core); this package re-exports
// everything needed to reproduce the paper's tables and figures.
package nim

import (
	"io"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dtm"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/runner"
	"repro/internal/trace"
)

// Scheme selects one of the four evaluated L2 organizations.
type Scheme = config.Scheme

// The four schemes of Section 5.2.
const (
	CMPDNUCA   = config.CMPDNUCA
	CMPDNUCA2D = config.CMPDNUCA2D
	CMPSNUCA3D = config.CMPSNUCA3D
	CMPDNUCA3D = config.CMPDNUCA3D
)

// Schemes lists all four schemes in the paper's presentation order.
func Schemes() []Scheme {
	return []Scheme{CMPDNUCA, CMPDNUCA2D, CMPSNUCA3D, CMPDNUCA3D}
}

// Config carries every simulation parameter (Table 4 defaults).
type Config = config.Config

// DefaultConfig returns the paper's Table 4 configuration for a scheme.
func DefaultConfig(s Scheme) Config { return config.Default(s) }

// Benchmark is a SPEC OMP workload profile (Table 5).
type Benchmark = trace.Profile

// Benchmarks returns the nine SPEC OMP profiles for a CPU count.
func Benchmarks(ncpu int) []Benchmark { return trace.Profiles(ncpu) }

// BenchmarkByName finds one benchmark profile by name.
func BenchmarkByName(name string, ncpu int) (Benchmark, bool) {
	return trace.ProfileByName(name, ncpu)
}

// Results is the measurement summary of a simulation window.
type Results = core.Results

// LineAddr is a cache-line address (the byte address divided by 64).
type LineAddr = cache.LineAddr

// Stream supplies one core's memory references; implement it to drive the
// simulator from a custom workload.
type Stream = trace.Stream

// FileStream replays a parsed trace file (see ParseTrace).
type FileStream = trace.FileStream

// ParseTrace reads a text reference trace: one "R|W|F <hexaddr> [gap]" per
// line; see trace.ParseTrace for the full format.
func ParseTrace(r io.Reader) (*FileStream, error) { return trace.ParseTrace(r) }

// SweepJob describes one simulation in a batch sweep: a full Config
// (scheme plus any per-job overrides such as L2 size, layer count, or
// pillar count), a benchmark name, the warm/measure windows, and a seed.
// Build common jobs with NewSweepJob and customize Config afterwards, or
// take a study's jobs from its builder (SchemeRepeatedJobs,
// VerticalAblationJobs, ...), and run them with RunSweep.
type SweepJob = runner.Job

// SweepResult pairs a SweepJob with its outcome: the job's input-slice
// Index, its Results on success, or a per-job Err on failure.
type SweepResult = runner.Result

// NewSweepJob builds the common sweep job: one machine configuration
// running one benchmark under opt's windows and seed. With a scheme's
// DefaultConfig it measures one bar of Figures 13 (AvgL2HitLatency), 14
// (Migrations) and 15 (IPC). Figure 16 scales the L2 first
// (Config.WithL2Size), Figure 17 lowers NumPillars on CMP-DNUCA-3D — the
// paper's proxy for lower inter-layer via density — and Figure 18 sets
// Layers on CMP-SNUCA-3D.
func NewSweepJob(cfg Config, benchName string, opt Options) SweepJob {
	return SweepJob{
		Config:        cfg,
		Benchmark:     benchName,
		WarmCycles:    opt.WarmCycles,
		MeasureCycles: opt.MeasureCycles,
		Seed:          opt.Seed,
	}
}

// RunSweep is how the package runs whole simulations, from one job to a
// study's worth: it executes independent jobs on a bounded worker pool
// and returns one SweepResult per job in input order. parallel bounds the
// number of concurrent simulations (<= 0 selects runtime.GOMAXPROCS(0);
// 1 runs strictly sequentially). A failed job is captured in its
// SweepResult.Err and never aborts the sweep; SweepError summarizes.
// progress, when non-nil, is called serially after each job finishes, in
// completion order. Every simulation is self-contained and deterministic
// in its seed, so a parallel sweep returns byte-identical Results to a
// sequential one.
func RunSweep(jobs []SweepJob, parallel int, progress func(done, total int, r SweepResult)) []SweepResult {
	p := runner.Pool{Workers: parallel, Progress: progress}
	return p.Run(jobs)
}

// SweepError returns the first failed job's error in input order, or nil
// when every job in the sweep succeeded.
func SweepError(results []SweepResult) error { return runner.FirstError(results) }

// Simulation is one configured machine running one workload. It is the
// simulator itself (internal/core's System), the machine the sweep runner
// drives and a SweepJob's OnChunk hook receives. Run it as the paper's
// evaluation does: Warm (or WarmAddresses on a trace-driven machine),
// Start, Run to settle, ResetStats, Run to measure, then Results.
// Instrument and AttachTracer attach observers; WriteHeatmap, BusReport
// and WriteThermalMap print text reports; CheckSingleCopy verifies the
// L2's single-copy invariant and the line directory.
type Simulation = core.System

// NewSimulation builds a deterministic simulation running one benchmark on
// every core. Warm it with the same seed.
func NewSimulation(cfg Config, bench Benchmark, seed uint64) (*Simulation, error) {
	return core.NewSystem(cfg, bench, seed)
}

// NewMixedSimulation builds a multiprogrammed machine: core i runs
// benches[i]. Programs get disjoint address spaces; cores given the same
// benchmark share its code and shared-data regions.
func NewMixedSimulation(cfg Config, benches []Benchmark, seed uint64) (*Simulation, error) {
	return core.NewSystemMixed(cfg, benches, seed)
}

// NewTraceSimulation builds a machine whose cores replay external reference
// streams. Use WarmAddresses (e.g. with FileStream.Footprint) to pre-fill
// the L2 before measuring; Warm does nothing on such a machine.
func NewTraceSimulation(cfg Config, streams []Stream, label string) (*Simulation, error) {
	return core.NewSystemStreams(cfg, streams, label)
}

// --- Observability (internal/obs) --------------------------------------

// TraceEvent is one cycle-stamped structured event: packet lifecycle,
// dTDMA arbitration, cache-line migration, or MSI coherence activity.
type TraceEvent = obs.Event

// TraceSink receives trace events; attach one with
// Simulation.AttachTracer. Implement it to stream events to a custom
// destination, or use NewTraceRing for the standard bounded buffer.
type TraceSink = obs.Sink

// TraceRing is a bounded in-memory sink keeping the most recent events.
type TraceRing = obs.RingSink

// NewTraceRing returns a ring sink holding up to capacity events.
func NewTraceRing(capacity int) *TraceRing { return obs.NewRingSink(capacity) }

// TraceMeta is export-level metadata embedded in a written Chrome trace
// (currently the capture buffer's drop count, marking partial traces).
type TraceMeta = obs.TraceMeta

// WriteChromeTraceMeta exports trace events as Chrome trace-event JSON,
// which chrome://tracing and Perfetto (ui.perfetto.dev) open directly, with
// a non-zero meta embedded in the output's otherData section.
func WriteChromeTraceMeta(w io.Writer, events []TraceEvent, meta TraceMeta) error {
	return obs.WriteChromeTraceMeta(w, events, meta)
}

// LatencyBreakdown is the aggregate per-component L2 latency decomposition
// of a measurement window, split by hits and misses. It appears in
// Results.Breakdown when spans are recorded (Instruments.RecordSpans) and
// prints with WriteTable.
type LatencyBreakdown = obs.BreakdownReport

// ComponentStat summarizes one latency component over a transaction class.
type ComponentStat = obs.ComponentStat

// MetricsSeries is a sampled metrics table with CSV/JSON export: read it
// from Simulation.Sampler().Series() or SweepResult.Samples.
type MetricsSeries = obs.TimeSeries

// Instruments selects the observers Simulation.Instrument attaches — the
// metrics sampler, the thermal pipeline (with the DTM controller on a
// managed Config), state digests, transaction spans, and the host
// profiler — each adding its report to Results. The zero value attaches
// nothing. Every observer is non-perturbing: Results, minus the reports
// they add, are bit-identical to an uninstrumented run.
type Instruments = core.Instruments

// ThermalReport is the run-level transient-thermal summary appearing in
// Results.Thermal when a thermal tracker is attached: peak temperature and
// where/when it occurred, time above threshold, per-layer profile, the
// inter-layer gradient, and the Table-1 energy breakdown by component.
type ThermalReport = obs.ThermalReport

// WriteCounterTrace exports a sampled metrics series as Perfetto counter
// tracks ("ph":"C"), so power, temperature, and rate metrics can be
// scrubbed against an event trace in the same UI.
func WriteCounterTrace(w io.Writer, ts *MetricsSeries) error {
	return obs.WriteCounterTrace(w, ts)
}

// DTMReport is the run-level dynamic-thermal-management summary appearing
// in Results.DTM when a DTM controller is attached: trip engagements,
// per-actuator counts (migration vetoes, drowsy-bank wakeups, duty-cycle
// stalls, pillar diversions), their direct latency cost, and how far the
// managed run still overshot the trip point.
type DTMReport = dtm.Report

// --- Host-side profiling (internal/prof) --------------------------------

// ProfileRecorder is the host-side phase profiler ("flight recorder");
// see Instruments.Profile and Simulation.Profiler. Read it out with Report
// (full readout, including the table renderer behind `nimsim -profile`)
// or stream the rolling throughput windows as a Perfetto host timeline
// with WriteTimeline.
type ProfileRecorder = prof.Recorder

// --- State digests (internal/digest) ------------------------------------

// DivergeReport locates where two configurations' digest streams first
// disagree; see Diverge.
type DivergeReport = runner.DivergeReport

// Diverge runs two sweep jobs side by side with digest recorders
// attached, binary-searches their snapshot streams for the first
// divergence, and refines it to the exact first divergent cycle and the
// offending subsystem by rerunning just the divergent window with
// per-cycle digesting. b's windows are forced to a's so the streams
// align; everything else, the seed included, may differ. Both jobs are
// validated before either runs. interval is the coarse snapshot period
// (0 selects 1000 cycles).
func Diverge(a, b SweepJob, interval uint64) (*DivergeReport, error) {
	return runner.Diverge(a, b, interval)
}
