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
//	sim.Warm()
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
	"repro/internal/digest"
	"repro/internal/dtm"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/runner"
	"repro/internal/thermal"
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

// ThermalProfile is a peak/average/minimum temperature triple.
type ThermalProfile = thermal.Profile

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

// Simulation is one configured machine running one benchmark.
type Simulation struct {
	sys  *core.System
	seed uint64
}

// NewSimulation builds a deterministic simulation running one benchmark on
// every core.
func NewSimulation(cfg Config, bench Benchmark, seed uint64) (*Simulation, error) {
	sys, err := core.NewSystem(cfg, bench, seed)
	if err != nil {
		return nil, err
	}
	return &Simulation{sys: sys, seed: seed}, nil
}

// NewMixedSimulation builds a multiprogrammed machine: core i runs
// benches[i]. Programs get disjoint address spaces; cores given the same
// benchmark share its code and shared-data regions.
func NewMixedSimulation(cfg Config, benches []Benchmark, seed uint64) (*Simulation, error) {
	sys, err := core.NewSystemMixed(cfg, benches, seed)
	if err != nil {
		return nil, err
	}
	return &Simulation{sys: sys, seed: seed}, nil
}

// NewTraceSimulation builds a machine whose cores replay external reference
// streams. Use WarmAddresses (e.g. with FileStream.Footprint) to pre-fill
// the L2 before measuring.
func NewTraceSimulation(cfg Config, streams []Stream, label string, seed uint64) (*Simulation, error) {
	sys, err := core.NewSystemStreams(cfg, streams, label)
	if err != nil {
		return nil, err
	}
	return &Simulation{sys: sys, seed: seed}, nil
}

// WarmAddresses installs the given lines at their home clusters — warm-up
// for trace-driven simulations.
func (s *Simulation) WarmAddresses(addrs []LineAddr) { s.sys.WarmAddresses(addrs) }

// Warm installs the benchmark's post-warm-up steady state into the caches
// (the paper's 500M-cycle warm-up, compressed; see internal/core.Warm).
func (s *Simulation) Warm() { s.sys.Warm(s.seed) }

// Start begins execution on every core.
func (s *Simulation) Start() { s.sys.Start() }

// Run advances the machine by n cycles.
func (s *Simulation) Run(n uint64) { s.sys.Run(n) }

// ResetStats discards measurements so far, keeping architectural state.
func (s *Simulation) ResetStats() { s.sys.ResetStats() }

// Results reads out the current measurement window.
func (s *Simulation) Results() Results { return s.sys.Results() }

// CheckInvariants verifies internal consistency (the L2 single-copy
// invariant, and that the line directory agrees with the tag arrays); it
// is primarily for tests and debugging.
func (s *Simulation) CheckInvariants() error { return s.sys.CheckSingleCopy() }

// WriteHeatmap renders per-layer ASCII router-utilization maps to w.
func (s *Simulation) WriteHeatmap(w io.Writer) { s.sys.WriteHeatmap(w) }

// WriteBusReport summarizes each pillar bus's traffic and utilization.
func (s *Simulation) WriteBusReport(w io.Writer) { s.sys.BusReport(w) }

// --- Observability (internal/obs) --------------------------------------

// TraceEvent is one cycle-stamped structured event: packet lifecycle,
// dTDMA arbitration, cache-line migration, or MSI coherence activity.
type TraceEvent = obs.Event

// TraceSink receives trace events; implement it to stream events to a
// custom destination, or use NewTraceRing for the standard bounded buffer.
type TraceSink = obs.Sink

// TraceRing is a bounded in-memory sink keeping the most recent events.
type TraceRing = obs.RingSink

// NewTraceRing returns a ring sink holding up to capacity events.
func NewTraceRing(capacity int) *TraceRing { return obs.NewRingSink(capacity) }

// WriteChromeTrace exports trace events as Chrome trace-event JSON, which
// chrome://tracing and Perfetto (ui.perfetto.dev) open directly.
func WriteChromeTrace(w io.Writer, events []TraceEvent) error {
	return obs.WriteChromeTrace(w, events)
}

// TraceMeta is export-level metadata embedded in a written Chrome trace
// (currently the capture buffer's drop count, marking partial traces).
type TraceMeta = obs.TraceMeta

// WriteChromeTraceMeta is WriteChromeTrace with trace metadata embedded in
// the output's otherData section.
func WriteChromeTraceMeta(w io.Writer, events []TraceEvent, meta TraceMeta) error {
	return obs.WriteChromeTraceMeta(w, events, meta)
}

// SpanRecorder accumulates per-transaction latency spans; see
// Instruments.RecordSpans.
type SpanRecorder = obs.SpanRecorder

// LatencyBreakdown is the aggregate per-component L2 latency decomposition
// of a measurement window, split by hits and misses. It appears in
// Results.Breakdown when a span recorder is attached and prints with
// WriteTable.
type LatencyBreakdown = obs.BreakdownReport

// ComponentStat summarizes one latency component over a transaction class.
type ComponentStat = obs.ComponentStat

// MetricsSampler takes periodic interval-metrics snapshots
// (Instruments.SampleInterval); read the accumulated table with Series().
type MetricsSampler = obs.Sampler

// MetricsSeries is a sampled metrics table with CSV/JSON export.
type MetricsSeries = obs.TimeSeries

// AttachTracer attaches a trace sink to every instrumented layer of the
// machine: packet inject/hop/VC-stall/eject, dTDMA slot-wheel resizing and
// bus grants, migration steps, cache SRAM accesses, and MSI coherence
// transitions all flow into the sink as cycle-stamped TraceEvents. A nil
// sink detaches tracing and restores the zero-overhead path (an unattached
// simulation pays one nil check per would-be event). Tracing composes with
// an attached thermal pipeline: each event tees to both.
func (s *Simulation) AttachTracer(sink TraceSink) {
	s.sys.AttachTracer(sink)
}

// Instruments selects the observers a simulation attaches — the metrics
// sampler, the thermal pipeline (with the DTM controller on a managed
// Config), state digests, transaction spans, and the host profiler —
// each adding its report to Results. The zero value attaches nothing.
type Instruments = core.Instruments

// Instrument attaches the observers in. It owns their timing and order:
// spans and the profiler attach at once, so request them before the
// settle run; thermal, digests and the sampler (in that order, so the
// sampler carries the thermal and digest columns) attach at the next
// ResetStats when requested before Start, at once after it. It errors on
// a request it cannot honour: a DTM policy without a thermal interval,
// unparseable DTM strings, or thermal or digests requested after the
// sampler. Every observer is non-perturbing: Results, minus the reports
// they add, are bit-identical to an uninstrumented run.
func (s *Simulation) Instrument(in Instruments) error { return s.sys.Instrument(in) }

// Sampler returns the attached metrics sampler, or nil.
func (s *Simulation) Sampler() *MetricsSampler { return s.sys.Sampler() }

// Spans returns the attached span recorder, or nil. Give it a trace sink
// (SpanRecorder.SetSink) to stream each attributed interval as an EvSpan
// TraceEvent; WriteChromeTrace renders those as per-CPU Perfetto tracks.
func (s *Simulation) Spans() *SpanRecorder { return s.sys.Spans() }

// Profiler returns the attached host-side phase profiler, or nil.
func (s *Simulation) Profiler() *ProfileRecorder { return s.sys.Profiler() }

// DigestRecorder returns the attached state-digest recorder, or nil.
func (s *Simulation) DigestRecorder() *DigestRecorder { return s.sys.DigestRecorder() }

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

// WriteThermalMap renders per-layer ASCII temperature maps of the attached
// thermal tracker's grid, with CPU cells marked. It errors when no thermal
// pipeline is attached (Instruments.ThermalInterval).
func (s *Simulation) WriteThermalMap(w io.Writer) error {
	return s.sys.WriteThermalMap(w)
}

// DTMPolicy is a composable bitmask of DTM actuators; parse flag values
// with ParseDTMPolicy.
type DTMPolicy = dtm.Policy

// The DTM actuators (compose with |, or use DTMAll).
const (
	DTMMigrationVeto = dtm.PolicyMigrationVeto
	DTMDrowsy        = dtm.PolicyDrowsy
	DTMDutyCycle     = dtm.PolicyDutyCycle
	DTMReroute       = dtm.PolicyReroute
	DTMAll           = dtm.PolicyAll
)

// ParseDTMPolicy parses a policy specification: "", "none" or "off",
// "all", or a comma-separated subset of veto, drowsy, duty, reroute.
func ParseDTMPolicy(s string) (DTMPolicy, error) { return dtm.ParsePolicy(s) }

// DTMReport is the run-level dynamic-thermal-management summary appearing
// in Results.DTM when a DTM controller is attached: trip engagements,
// per-actuator counts (migration vetoes, drowsy-bank wakeups, duty-cycle
// stalls, pillar diversions), their direct latency cost, and how far the
// managed run still overshot the trip point.
type DTMReport = dtm.Report

// --- Host-side profiling (internal/prof) --------------------------------

// ProfileRecorder is the host-side phase profiler ("flight recorder");
// see Instruments.Profile. Read it out with Report (full readout, including
// the table renderer behind `nimsim -profile`) or stream the rolling
// throughput windows as a Perfetto host timeline with WriteTimeline.
type ProfileRecorder = prof.Recorder

// ProfileReport is the flight-recorder readout appearing in
// Results.Profile when the profiler is attached: per-phase wall-clock
// share/mean/P95, the rolling cycles/sec series, allocation deltas, and
// host provenance (GOOS/GOARCH, CPU count, Go version).
type ProfileReport = prof.Report

// --- State digests (internal/digest) ------------------------------------

// DigestRecorder is the incremental state-digest engine; see
// Instruments.DigestInterval.
// Read the final digest with Digest(), the full snapshot stream with
// Records().
type DigestRecorder = digest.Recorder

// DigestReport is the digest summary appearing in Results.Digests when a
// recorder is attached: the snapshot interval, the final run-attesting
// 64-bit digest, and the per-subsystem chain values. Its in-memory
// Stream field (not serialized) carries the full snapshot sequence.
type DigestReport = digest.Report

// DigestRecord is one digest snapshot: a cycle plus cumulative per-lane
// and overall digests.
type DigestRecord = digest.Record

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
