package nim

import (
	"math"

	"repro/internal/runner"
	"repro/internal/thermal"
)

// Options controls an experiment run. The defaults balance statistical
// stability against wall-clock time; raise MeasureCycles for smoother
// curves.
type Options struct {
	// WarmCycles settles the warmed caches (migration counters, in-flight
	// traffic) before measurement begins.
	WarmCycles uint64
	// MeasureCycles is the statistics window (the paper uses 2B cycles on
	// its native-speed simulator; the shapes stabilize far earlier).
	MeasureCycles uint64
	// Seed makes every run deterministic.
	Seed uint64
	// Parallel bounds how many simulations a multi-run helper
	// (RunAllSchemes, RunSchemeRepeated, CPUCountSweep,
	// MigrationThresholdSweep, RunSweep, and the pair ablations
	// StackedVsOffset, VerticalAblation, ReplicationAblation,
	// RouterPipelineAblation, SearchPolicyAblation, TagPortAblation and
	// ClusterSkipAblation) executes concurrently. Zero or negative selects
	// runtime.GOMAXPROCS(0); 1 forces the historical strictly-sequential
	// behavior. Results are identical either way — every simulation is
	// self-contained and seed-deterministic — so this only changes
	// wall-clock time.
	Parallel int
}

// DefaultOptions returns the standard experiment windows. Parallel is left
// at 0, so multi-run helpers use every available core by default.
func DefaultOptions() Options {
	return Options{WarmCycles: runner.DefaultWarmCycles, MeasureCycles: runner.DefaultMeasureCycles, Seed: 1}
}

// jobFor translates one configured run into a sweep job.
func jobFor(cfg Config, benchName string, opt Options) SweepJob {
	return SweepJob{
		Config:        cfg,
		Benchmark:     benchName,
		WarmCycles:    opt.WarmCycles,
		MeasureCycles: opt.MeasureCycles,
		Seed:          opt.Seed,
	}
}

// runJobs executes a job slice at opt.Parallel width and flattens the
// outcome back to the historical ([]Results, first error) shape.
func runJobs(jobs []SweepJob, opt Options) ([]Results, error) {
	rs := RunSweep(jobs, opt.Parallel, nil)
	if err := runner.FirstError(rs); err != nil {
		return nil, err
	}
	out := make([]Results, len(rs))
	for i, r := range rs {
		out[i] = r.Results
	}
	return out, nil
}

// runConfigured executes one warmed, settled, measured simulation.
func runConfigured(cfg Config, benchName string, opt Options) (Results, error) {
	rs, err := runJobs([]SweepJob{jobFor(cfg, benchName, opt)}, opt)
	if err != nil {
		return Results{}, err
	}
	return rs[0], nil
}

// RunScheme measures one scheme on one benchmark at Table 4 defaults.
// One call provides the data for Figures 13 (AvgL2HitLatency), 14
// (Migrations), and 15 (IPC).
func RunScheme(s Scheme, benchName string, opt Options) (Results, error) {
	return runConfigured(DefaultConfig(s), benchName, opt)
}

// RunAllSchemes measures all four schemes on one benchmark. The four
// simulations run concurrently up to opt.Parallel workers; the result is
// identical to four sequential RunScheme calls.
func RunAllSchemes(benchName string, opt Options) (map[Scheme]Results, error) {
	schemes := Schemes()
	jobs := make([]SweepJob, len(schemes))
	for i, s := range schemes {
		jobs[i] = jobFor(DefaultConfig(s), benchName, opt)
	}
	rs, err := runJobs(jobs, opt)
	if err != nil {
		return nil, err
	}
	out := make(map[Scheme]Results, len(schemes))
	for i, s := range schemes {
		out[s] = rs[i]
	}
	return out, nil
}

// RunWithL2Size measures a scheme with the L2 scaled to 16, 32 or 64 MB by
// growing each cluster (Figure 16).
func RunWithL2Size(s Scheme, benchName string, megabytes int, opt Options) (Results, error) {
	cfg, err := DefaultConfig(s).WithL2Size(megabytes)
	if err != nil {
		return Results{}, err
	}
	return runConfigured(cfg, benchName, opt)
}

// RunWithPillars measures CMP-DNUCA-3D with a reduced pillar count — the
// paper's proxy for lower inter-layer via density (Figure 17). With fewer
// pillars than CPUs, processors share pillars via placement Algorithm 1.
func RunWithPillars(benchName string, pillars int, opt Options) (Results, error) {
	cfg := DefaultConfig(CMPDNUCA3D)
	cfg.NumPillars = pillars
	return runConfigured(cfg, benchName, opt)
}

// RunWithLayers measures CMP-SNUCA-3D with the given layer count
// (Figure 18 compares 2 and 4 layers).
func RunWithLayers(benchName string, layers int, opt Options) (Results, error) {
	cfg := DefaultConfig(CMPSNUCA3D)
	cfg.Layers = layers
	return runConfigured(cfg, benchName, opt)
}

// Aggregate summarizes repeated measurements of one metric.
type Aggregate struct {
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	N      int
}

func aggregate(vals []float64) Aggregate {
	a := Aggregate{N: len(vals)}
	if a.N == 0 {
		return a
	}
	a.Min, a.Max = vals[0], vals[0]
	for _, v := range vals {
		a.Mean += v
		if v < a.Min {
			a.Min = v
		}
		if v > a.Max {
			a.Max = v
		}
	}
	a.Mean /= float64(a.N)
	for _, v := range vals {
		a.StdDev += (v - a.Mean) * (v - a.Mean)
	}
	a.StdDev = math.Sqrt(a.StdDev / float64(a.N))
	return a
}

// RepeatedResults carries per-seed results and cross-seed aggregates of the
// three paper metrics.
type RepeatedResults struct {
	Latency    Aggregate
	IPC        Aggregate
	Migrations Aggregate
	Runs       []Results
}

// RunSchemeRepeated runs one scheme/benchmark across several seeds and
// aggregates, for reporting confidence alongside the point estimates. The
// per-seed runs execute concurrently up to opt.Parallel workers; Runs stay
// in seed order.
func RunSchemeRepeated(s Scheme, benchName string, opt Options, seeds int) (RepeatedResults, error) {
	rs, err := runJobs(SchemeRepeatedJobs(s, benchName, opt, seeds), opt)
	if err != nil {
		return RepeatedResults{}, err
	}
	return SummarizeRepeated(rs), nil
}

// SchemeRepeatedJobs builds RunSchemeRepeated's jobs: the scheme's default
// configuration at seeds opt.Seed, opt.Seed+1, ..., one job per seed.
func SchemeRepeatedJobs(s Scheme, benchName string, opt Options, seeds int) []SweepJob {
	jobs := make([]SweepJob, seeds)
	for i := range jobs {
		o := opt
		o.Seed = opt.Seed + uint64(i)
		jobs[i] = jobFor(DefaultConfig(s), benchName, o)
	}
	return jobs
}

// SummarizeRepeated aggregates per-seed runs, in seed order, into
// RunSchemeRepeated's result.
func SummarizeRepeated(runs []Results) RepeatedResults {
	var out RepeatedResults
	var lat, ipc, mig []float64
	for _, r := range runs {
		out.Runs = append(out.Runs, r)
		lat = append(lat, r.AvgL2HitLatency)
		ipc = append(ipc, r.IPC)
		mig = append(mig, float64(r.Migrations))
	}
	out.Latency = aggregate(lat)
	out.IPC = aggregate(ipc)
	out.Migrations = aggregate(mig)
	return out
}

// CPUCountSweep measures a scheme across processor counts (one pillar per
// CPU, as in the paper's placement), exploring the scaling direction the
// paper's conclusion points at. The per-count runs execute concurrently up
// to opt.Parallel workers; results stay in counts order.
func CPUCountSweep(s Scheme, benchName string, counts []int, opt Options) ([]Results, error) {
	return runJobs(CPUCountSweepJobs(s, benchName, counts, opt), opt)
}

// CPUCountSweepJobs builds CPUCountSweep's jobs, in counts order.
func CPUCountSweepJobs(s Scheme, benchName string, counts []int, opt Options) []SweepJob {
	jobs := make([]SweepJob, len(counts))
	for i, n := range counts {
		cfg := DefaultConfig(s)
		cfg.NumCPUs = n
		cfg.NumPillars = n
		jobs[i] = jobFor(cfg, benchName, opt)
	}
	return jobs
}

// Table3 reproduces the thermal table: peak/average/minimum temperature
// for each CPU placement configuration, next to the paper's values.
type Table3Row = thermal.Table3Row

// ThermalTable3 runs the calibrated thermal model over the seven Table 3
// configurations.
func ThermalTable3() ([]Table3Row, error) {
	return thermal.Table3(thermal.DefaultParams())
}

// pairJobs builds a pair ablation's two jobs: base, then base changed by
// vary.
func pairJobs(base Config, vary func(*Config), benchName string, opt Options) [2]SweepJob {
	alt := base
	vary(&alt)
	return [2]SweepJob{jobFor(base, benchName, opt), jobFor(alt, benchName, opt)}
}

// runPair runs a pair ablation's two jobs through one sweep at opt.Parallel
// width.
func runPair(jobs [2]SweepJob, opt Options) (Results, Results, error) {
	rs, err := runJobs(jobs[:], opt)
	if err != nil {
		return Results{}, Results{}, err
	}
	return rs[0], rs[1], nil
}

// StackedVsOffset compares network performance of stacked versus offset CPU
// placement under CMP-DNUCA-3D (the congestion argument of Section 3.3,
// complementing Table 3's thermal argument).
func StackedVsOffset(benchName string, opt Options) (offset, stacked Results, err error) {
	return runPair(StackedVsOffsetJobs(benchName, opt), opt)
}

// StackedVsOffsetJobs builds StackedVsOffset's offset and stacked jobs.
func StackedVsOffsetJobs(benchName string, opt Options) [2]SweepJob {
	return pairJobs(DefaultConfig(CMPDNUCA3D), func(c *Config) { c.StackCPUs = true }, benchName, opt)
}

// VerticalAblation compares the paper's dTDMA bus pillars against the
// rejected 7-port-router vertical interconnect on a CMP-SNUCA-3D chip with
// the given layer count. The paper argues the bus wins below nine layers:
// single-hop traversal beats hop-by-hop router traversal, and pillar
// routers keep one extra port instead of two.
func VerticalAblation(benchName string, layers int, opt Options) (bus, router Results, err error) {
	return runPair(VerticalAblationJobs(benchName, layers, opt), opt)
}

// VerticalAblationJobs builds VerticalAblation's bus and router jobs.
func VerticalAblationJobs(benchName string, layers int, opt Options) [2]SweepJob {
	base := DefaultConfig(CMPSNUCA3D)
	base.Layers = layers
	return pairJobs(base, func(c *Config) { c.VerticalNoC = true }, benchName, opt)
}

// ReplicationAblation compares plain CMP-SNUCA-3D against SNUCA-3D with
// victim replication (the replication-based management alternative of
// Section 2.1): remote read hits leave read-only replicas in the reader's
// local cluster, trading L2 capacity and invalidation traffic for locality.
func ReplicationAblation(benchName string, opt Options) (plain, replicated Results, err error) {
	return runPair(ReplicationAblationJobs(benchName, opt), opt)
}

// ReplicationAblationJobs builds ReplicationAblation's plain and replicated
// jobs.
func ReplicationAblationJobs(benchName string, opt Options) [2]SweepJob {
	return pairJobs(DefaultConfig(CMPSNUCA3D), func(c *Config) { c.VictimReplication = true }, benchName, opt)
}

// RouterPipelineAblation compares the paper's single-stage (1-cycle)
// routers against the basic four-stage pipeline (Section 3.2) under
// CMP-DNUCA-3D: every hop costs three extra cycles, which multiplies
// across search probes and data trips.
func RouterPipelineAblation(benchName string, opt Options) (singleStage, fourStage Results, err error) {
	return runPair(RouterPipelineAblationJobs(benchName, opt), opt)
}

// RouterPipelineAblationJobs builds RouterPipelineAblation's single-stage
// and four-stage jobs.
func RouterPipelineAblationJobs(benchName string, opt Options) [2]SweepJob {
	return pairJobs(DefaultConfig(CMPDNUCA3D), func(c *Config) { c.RouterPipeline = 4 }, benchName, opt)
}

// SearchPolicyAblation compares the paper's two-step search against a
// single-step broadcast to all clusters under CMP-DNUCA-3D: the broadcast
// finds remote lines one round-trip earlier but multiplies probe traffic.
func SearchPolicyAblation(benchName string, opt Options) (twoStep, broadcast Results, err error) {
	return runPair(SearchPolicyAblationJobs(benchName, opt), opt)
}

// SearchPolicyAblationJobs builds SearchPolicyAblation's two-step and
// broadcast jobs.
func SearchPolicyAblationJobs(benchName string, opt Options) [2]SweepJob {
	return pairJobs(DefaultConfig(CMPDNUCA3D), func(c *Config) { c.BroadcastSearch = true }, benchName, opt)
}

// TagPortAblation compares idealized (unlimited-port) cluster tag arrays
// against single-ported ones under CMP-SNUCA-3D, where every access hits
// one home tag array and hot homes contend.
func TagPortAblation(benchName string, opt Options) (ideal, singlePort Results, err error) {
	return runPair(TagPortAblationJobs(benchName, opt), opt)
}

// TagPortAblationJobs builds TagPortAblation's unlimited-port and
// single-port jobs.
func TagPortAblationJobs(benchName string, opt Options) [2]SweepJob {
	return pairJobs(DefaultConfig(CMPSNUCA3D), func(c *Config) { c.TagPorts = 1 }, benchName, opt)
}

// MigrationThresholdSweep measures CMP-DNUCA-3D across migration
// thresholds (ablation of the design choice in Section 4.2.3). The
// per-threshold runs execute concurrently up to opt.Parallel workers;
// results stay in thresholds order.
func MigrationThresholdSweep(benchName string, thresholds []int, opt Options) ([]Results, error) {
	return runJobs(MigrationThresholdSweepJobs(benchName, thresholds, opt), opt)
}

// MigrationThresholdSweepJobs builds MigrationThresholdSweep's jobs, in
// thresholds order.
func MigrationThresholdSweepJobs(benchName string, thresholds []int, opt Options) []SweepJob {
	jobs := make([]SweepJob, len(thresholds))
	for i, th := range thresholds {
		cfg := DefaultConfig(CMPDNUCA3D)
		cfg.MigrationThreshold = th
		jobs[i] = jobFor(cfg, benchName, opt)
	}
	return jobs
}

// ClusterSkipAblation measures CMP-DNUCA-3D with and without the policy of
// skipping processor-owned clusters during intra-layer migration.
func ClusterSkipAblation(benchName string, opt Options) (withSkip, withoutSkip Results, err error) {
	return runPair(ClusterSkipAblationJobs(benchName, opt), opt)
}

// ClusterSkipAblationJobs builds ClusterSkipAblation's with-skip and
// without-skip jobs.
func ClusterSkipAblationJobs(benchName string, opt Options) [2]SweepJob {
	return pairJobs(DefaultConfig(CMPDNUCA3D), func(c *Config) { c.SkipCPUClusters = false }, benchName, opt)
}
