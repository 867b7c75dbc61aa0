package nim

import (
	"math"

	"repro/internal/runner"
	"repro/internal/thermal"
)

// Options holds the windows and seed of an experiment's jobs (NewSweepJob
// and the study builders below). The defaults balance statistical
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
}

// DefaultOptions returns the standard experiment windows.
func DefaultOptions() Options {
	return Options{WarmCycles: runner.DefaultWarmCycles, MeasureCycles: runner.DefaultMeasureCycles, Seed: 1}
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

// SchemeRepeatedJobs repeats one scheme/benchmark across several seeds,
// for reporting confidence alongside the point estimates: the scheme's
// default configuration at seeds opt.Seed, opt.Seed+1, ..., one job per
// seed. SummarizeRepeated aggregates their Results.
func SchemeRepeatedJobs(s Scheme, benchName string, opt Options, seeds int) []SweepJob {
	jobs := make([]SweepJob, seeds)
	for i := range jobs {
		o := opt
		o.Seed = opt.Seed + uint64(i)
		jobs[i] = NewSweepJob(DefaultConfig(s), benchName, o)
	}
	return jobs
}

// SummarizeRepeated aggregates per-seed runs, in seed order, such as the
// Results of SchemeRepeatedJobs.
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

// CPUCountSweepJobs measures a scheme across processor counts (one pillar
// per CPU, as in the paper's placement), exploring the scaling direction
// the paper's conclusion points at. One job per count, in counts order.
func CPUCountSweepJobs(s Scheme, benchName string, counts []int, opt Options) []SweepJob {
	jobs := make([]SweepJob, len(counts))
	for i, n := range counts {
		cfg := DefaultConfig(s)
		cfg.NumCPUs = n
		cfg.NumPillars = n
		jobs[i] = NewSweepJob(cfg, benchName, opt)
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
	return [2]SweepJob{NewSweepJob(base, benchName, opt), NewSweepJob(alt, benchName, opt)}
}

// StackedVsOffsetJobs compares network performance of offset versus
// stacked CPU placement under CMP-DNUCA-3D (the congestion argument of
// Section 3.3, complementing Table 3's thermal argument): the offset job,
// then the stacked one.
func StackedVsOffsetJobs(benchName string, opt Options) [2]SweepJob {
	return pairJobs(DefaultConfig(CMPDNUCA3D), func(c *Config) { c.StackCPUs = true }, benchName, opt)
}

// VerticalAblationJobs compares the paper's dTDMA bus pillars against the
// rejected 7-port-router vertical interconnect on a CMP-SNUCA-3D chip with
// the given layer count: the bus job, then the router one. The paper
// argues the bus wins below nine layers: single-hop traversal beats
// hop-by-hop router traversal, and pillar routers keep one extra port
// instead of two.
func VerticalAblationJobs(benchName string, layers int, opt Options) [2]SweepJob {
	base := DefaultConfig(CMPSNUCA3D)
	base.Layers = layers
	return pairJobs(base, func(c *Config) { c.VerticalNoC = true }, benchName, opt)
}

// ReplicationAblationJobs compares plain CMP-SNUCA-3D against SNUCA-3D
// with victim replication (the replication-based management alternative of
// Section 2.1): the plain job, then the replicated one. Remote read hits
// leave read-only replicas in the reader's local cluster, trading L2
// capacity and invalidation traffic for locality.
func ReplicationAblationJobs(benchName string, opt Options) [2]SweepJob {
	return pairJobs(DefaultConfig(CMPSNUCA3D), func(c *Config) { c.VictimReplication = true }, benchName, opt)
}

// RouterPipelineAblationJobs compares the paper's single-stage (1-cycle)
// routers against the basic four-stage pipeline (Section 3.2) under
// CMP-DNUCA-3D: the single-stage job, then the four-stage one. Every hop
// costs three extra cycles, which multiplies across search probes and
// data trips.
func RouterPipelineAblationJobs(benchName string, opt Options) [2]SweepJob {
	return pairJobs(DefaultConfig(CMPDNUCA3D), func(c *Config) { c.RouterPipeline = 4 }, benchName, opt)
}

// SearchPolicyAblationJobs compares the paper's two-step search against a
// single-step broadcast to all clusters under CMP-DNUCA-3D: the two-step
// job, then the broadcast one. The broadcast finds remote lines one
// round-trip earlier but multiplies probe traffic.
func SearchPolicyAblationJobs(benchName string, opt Options) [2]SweepJob {
	return pairJobs(DefaultConfig(CMPDNUCA3D), func(c *Config) { c.BroadcastSearch = true }, benchName, opt)
}

// TagPortAblationJobs compares idealized (unlimited-port) cluster tag
// arrays against single-ported ones under CMP-SNUCA-3D, where every access
// hits one home tag array and hot homes contend: the unlimited-port job,
// then the single-port one.
func TagPortAblationJobs(benchName string, opt Options) [2]SweepJob {
	return pairJobs(DefaultConfig(CMPSNUCA3D), func(c *Config) { c.TagPorts = 1 }, benchName, opt)
}

// MigrationThresholdSweepJobs measures CMP-DNUCA-3D across migration
// thresholds (ablation of the design choice in Section 4.2.3). One job
// per threshold, in thresholds order.
func MigrationThresholdSweepJobs(benchName string, thresholds []int, opt Options) []SweepJob {
	jobs := make([]SweepJob, len(thresholds))
	for i, th := range thresholds {
		cfg := DefaultConfig(CMPDNUCA3D)
		cfg.MigrationThreshold = th
		jobs[i] = NewSweepJob(cfg, benchName, opt)
	}
	return jobs
}

// ClusterSkipAblationJobs measures CMP-DNUCA-3D with and without the
// policy of skipping processor-owned clusters during intra-layer
// migration: the with-skip job, then the without-skip one.
func ClusterSkipAblationJobs(benchName string, opt Options) [2]SweepJob {
	return pairJobs(DefaultConfig(CMPDNUCA3D), func(c *Config) { c.SkipCPUClusters = false }, benchName, opt)
}
