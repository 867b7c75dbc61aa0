// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark family per table/figure), plus ablations of the design
// choices called out in DESIGN.md. Each benchmark reports the figure's
// metric through b.ReportMetric, so `go test -bench=. -benchmem` prints the
// series the paper plots; `go run ./cmd/experiments -all` prints the same
// data as formatted tables.
package nim_test

import (
	"testing"

	nim "repro"
	"repro/internal/config"
	"repro/internal/power"
	"repro/internal/thermal"
	"repro/internal/trace"
)

// benchOpt keeps individual benchmarks quick; cmd/experiments uses larger
// windows for smoother numbers.
func benchOpt() nim.Options {
	return nim.Options{WarmCycles: 30_000, MeasureCycles: 80_000, Seed: 1}
}

// reportRun attaches the three paper metrics to a benchmark result.
func reportRun(b *testing.B, r nim.Results) {
	b.ReportMetric(r.AvgL2HitLatency, "L2hit-cycles")
	b.ReportMetric(r.IPC, "IPC")
	b.ReportMetric(float64(r.Migrations), "migrations")
}

// runJob runs job b.N times, each time as a one-job sweep, and returns the
// last run's Results.
func runJob(b *testing.B, job nim.SweepJob) nim.Results {
	b.Helper()
	var r nim.Results
	for i := 0; i < b.N; i++ {
		rs := nim.RunSweep([]nim.SweepJob{job}, 1, nil)
		if err := nim.SweepError(rs); err != nil {
			b.Fatal(err)
		}
		r = rs[0].Results
	}
	return r
}

// --- Table 1: dTDMA component characterization -------------------------

func BenchmarkTable1Components(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		for _, c := range power.Table1() {
			total += c.PowerMW + c.AreaMM2
		}
	}
	b.ReportMetric(power.RouterPowerMW/power.ArbiterPowerMW, "router-vs-arbiter-power-x")
	_ = total
}

// --- Table 2: pillar wiring area vs via pitch --------------------------

func BenchmarkTable2PillarArea(b *testing.B) {
	var area float64
	for i := 0; i < b.N; i++ {
		for _, pitch := range power.Table2Pitches {
			area += power.PillarAreaUM2(pitch)
		}
	}
	b.ReportMetric(power.PillarAreaUM2(5), "um2@5um")
	b.ReportMetric(100*power.PillarAreaOverheadVsRouter(5), "overhead-pct@5um")
	_ = area
}

// --- Table 3: thermal profiles of CPU placements -----------------------

func BenchmarkTable3Thermal(b *testing.B) {
	var rows []nim.Table3Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = nim.ThermalTable3()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Name == "3D-2L, CPU stacking" {
			b.ReportMetric(r.Profile.PeakC, "stacking-peak-C")
		}
		if r.Name == "3D-2L, optimal offset" {
			b.ReportMetric(r.Profile.PeakC, "offset-peak-C")
		}
	}
}

// --- Table 5: workload generation throughput ---------------------------

func BenchmarkTable5WorkloadGen(b *testing.B) {
	prof, _ := trace.ProfileByName("mgrid", 8)
	g := trace.NewGenerator(prof, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

// --- Figures 13/14/15: the four schemes --------------------------------

func BenchmarkFig13Fig15Schemes(b *testing.B) {
	for _, bench := range []string{"mgrid", "art"} {
		for _, s := range nim.Schemes() {
			b.Run(bench+"/"+s.String(), func(b *testing.B) {
				reportRun(b, runJob(b, nim.NewSweepJob(nim.DefaultConfig(s), bench, benchOpt())))
			})
		}
	}
}

func BenchmarkFig14Migrations(b *testing.B) {
	// Migration counts of the three migrating schemes on swim, the series
	// Figure 14 normalizes against CMP-DNUCA-2D.
	for _, s := range []nim.Scheme{nim.CMPDNUCA, nim.CMPDNUCA2D, nim.CMPDNUCA3D} {
		b.Run(s.String(), func(b *testing.B) {
			r := runJob(b, nim.NewSweepJob(nim.DefaultConfig(s), "swim", benchOpt()))
			b.ReportMetric(float64(r.Migrations), "migrations")
		})
	}
}

// --- Figure 16: L2 capacity scaling -------------------------------------

func BenchmarkFig16CacheSize(b *testing.B) {
	for _, mb := range []int{16, 32, 64} {
		for _, s := range []nim.Scheme{nim.CMPDNUCA2D, nim.CMPDNUCA3D} {
			b.Run(s.String()+"/"+sizeName(mb), func(b *testing.B) {
				cfg, err := nim.DefaultConfig(s).WithL2Size(mb)
				if err != nil {
					b.Fatal(err)
				}
				r := runJob(b, nim.NewSweepJob(cfg, "mgrid", benchOpt()))
				b.ReportMetric(r.AvgL2HitLatency, "L2hit-cycles")
			})
		}
	}
}

func sizeName(mb int) string {
	switch mb {
	case 16:
		return "16MB"
	case 32:
		return "32MB"
	case 64:
		return "64MB"
	}
	return "?"
}

// --- Figure 17: number of pillars ---------------------------------------

func BenchmarkFig17Pillars(b *testing.B) {
	for _, p := range []int{8, 4, 2} {
		b.Run(pillarName(p), func(b *testing.B) {
			cfg := nim.DefaultConfig(nim.CMPDNUCA3D)
			cfg.NumPillars = p
			r := runJob(b, nim.NewSweepJob(cfg, "swim", benchOpt()))
			b.ReportMetric(r.AvgL2HitLatency, "L2hit-cycles")
		})
	}
}

func pillarName(p int) string {
	switch p {
	case 8:
		return "8pillars"
	case 4:
		return "4pillars"
	case 2:
		return "2pillars"
	}
	return "?"
}

// --- Figure 18: number of layers ----------------------------------------

func BenchmarkFig18Layers(b *testing.B) {
	for _, l := range []int{2, 4} {
		b.Run(layerName(l), func(b *testing.B) {
			cfg := nim.DefaultConfig(nim.CMPSNUCA3D)
			cfg.Layers = l
			r := runJob(b, nim.NewSweepJob(cfg, "mgrid", benchOpt()))
			b.ReportMetric(r.AvgL2HitLatency, "L2hit-cycles")
		})
	}
}

func layerName(l int) string {
	if l == 2 {
		return "2layers"
	}
	return "4layers"
}

// --- Ablations of DESIGN.md's called-out choices ------------------------

// benchPair runs each job of a pair ablation as its own sub-benchmark,
// named by names, and reports its L2 hit latency; more, when non-nil,
// reports further metrics of the run.
func benchPair(b *testing.B, jobs [2]nim.SweepJob, names [2]string, more func(*testing.B, nim.Results)) {
	for i, name := range names {
		b.Run(name, func(b *testing.B) {
			r := runJob(b, jobs[i])
			b.ReportMetric(r.AvgL2HitLatency, "L2hit-cycles")
			if more != nil {
				more(b, r)
			}
		})
	}
}

func BenchmarkAblationMigrationThreshold(b *testing.B) {
	ths := []int{1, 2, 4, 8}
	jobs := nim.MigrationThresholdSweepJobs("swim", ths, benchOpt())
	for i, th := range ths {
		b.Run(thName(th), func(b *testing.B) {
			r := runJob(b, jobs[i])
			b.ReportMetric(r.AvgL2HitLatency, "L2hit-cycles")
			b.ReportMetric(float64(r.Migrations), "migrations")
		})
	}
}

func thName(th int) string {
	return "threshold" + string(rune('0'+th))
}

func BenchmarkAblationClusterSkip(b *testing.B) {
	benchPair(b, nim.ClusterSkipAblationJobs("swim", benchOpt()), [2]string{"skip-on", "skip-off"}, nil)
}

func BenchmarkAblationStackedCPUs(b *testing.B) {
	// Network-performance counterpart of Table 3's thermal argument:
	// stacking CPUs on shared pillar columns congests the pillars.
	benchPair(b, nim.StackedVsOffsetJobs("mgrid", benchOpt()), [2]string{"offset", "stacked"}, nil)
}

func BenchmarkAblationVerticalInterconnect(b *testing.B) {
	// The paper's Section 3.1 design decision: dTDMA bus pillars versus
	// 7-port 3D routers for the vertical direction, on a 4-layer chip
	// where the single-hop advantage is visible.
	benchPair(b, nim.VerticalAblationJobs("mgrid", 4, benchOpt()), [2]string{"dtdma-bus", "router-7port"}, nil)
}

func BenchmarkAblationRouterPipeline(b *testing.B) {
	// The paper's Section 3.2 choice of single-stage routers over the
	// basic four-stage pipeline.
	benchPair(b, nim.RouterPipelineAblationJobs("swim", benchOpt()), [2]string{"single-stage", "four-stage"}, nil)
}

func BenchmarkAblationSearchPolicy(b *testing.B) {
	// Two-step search (Section 4.2.1) vs single-step broadcast.
	benchPair(b, nim.SearchPolicyAblationJobs("art", benchOpt()), [2]string{"two-step", "broadcast"},
		func(b *testing.B, r nim.Results) { b.ReportMetric(float64(r.ProbesSent), "probes") })
}

func BenchmarkAblationVictimReplication(b *testing.B) {
	// The replication-vs-migration management alternative of Section 2.1.
	jobs := nim.ReplicationAblationJobs("equake", benchOpt())
	b.Run("snuca3d-plain", func(b *testing.B) {
		b.ReportMetric(runJob(b, jobs[0]).AvgL2HitLatency, "L2hit-cycles")
	})
	b.Run("snuca3d-vr", func(b *testing.B) {
		r := runJob(b, jobs[1])
		b.ReportMetric(r.AvgL2HitLatency, "L2hit-cycles")
		b.ReportMetric(float64(r.ReplicaHits), "replica-hits")
	})
}

func BenchmarkAblationTagPorts(b *testing.B) {
	// Idealized vs single-ported cluster tag arrays.
	benchPair(b, nim.TagPortAblationJobs("mgrid", benchOpt()), [2]string{"unlimited", "single-port"}, nil)
}

// --- Microbenchmarks: simulator throughput ------------------------------

// BenchmarkTracingOverhead quantifies the observability layer's cost on a
// Figure 13-style run. The "disabled" case is the default configuration —
// no probe attached, every instrumentation site a nil check — and is the
// one that must stay within 2% of the pre-instrumentation simulator. The
// "enabled" case attaches a ring sink and shows the full-tracing price;
// "spans" attaches the pooled transaction span recorder instead.
func BenchmarkTracingOverhead(b *testing.B) {
	run := func(b *testing.B, in nim.Instruments, sink nim.TraceSink) {
		sim := newSim(b, nim.DefaultConfig(nim.CMPDNUCA3D), 1, in)
		sim.ResetStats() // attaches the window instruments
		sim.AttachTracer(sink)
		b.ResetTimer()
		sim.Run(uint64(b.N))
	}
	b.Run("disabled", func(b *testing.B) { run(b, nim.Instruments{}, nil) })
	b.Run("enabled", func(b *testing.B) { run(b, nim.Instruments{}, nim.NewTraceRing(1<<20)) })
	b.Run("spans", func(b *testing.B) { run(b, nim.Instruments{RecordSpans: true}, nil) })
	b.Run("thermal", func(b *testing.B) { run(b, nim.Instruments{ThermalInterval: 1_000}, nil) })
	// The host profiler's full price: one clock read per event plus two
	// per ticker. The disabled case above doubles as its zero-cost gate —
	// an unattached run's only extra work is the nil checks in Engine.Step.
	b.Run("profile", func(b *testing.B) { run(b, nim.Instruments{Profile: true}, nil) })
}

// BenchmarkSimulatorThroughput reports simulated cycles per wall-clock
// second. The "serial" case is the historical default 3D system and the
// regression gate's anchor (scripts/bench.sh holds it within 10% of the
// committed baseline). The "stacked" case is the four-layer stacked-CPU
// machine, where the network phase dominates loop time.
func BenchmarkSimulatorThroughput(b *testing.B) {
	run := func(b *testing.B, stacked bool) {
		cfg := nim.DefaultConfig(nim.CMPDNUCA3D)
		if stacked {
			cfg.Layers = 4
			cfg.StackCPUs = true
		}
		sim := newSim(b, cfg, 1, nim.Instruments{})
		b.ResetTimer()
		sim.Run(uint64(b.N))
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cycles/sec")
	}
	b.Run("serial", func(b *testing.B) { run(b, false) })
	b.Run("stacked", func(b *testing.B) { run(b, true) })
}

func BenchmarkThermalSolver(b *testing.B) {
	cfg := nim.DefaultConfig(nim.CMPDNUCA3D)
	top, err := config.NewTopology(cfg)
	if err != nil {
		b.Fatal(err)
	}
	prm := thermal.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		thermal.Simulate(top.Dim, top.CPUs, prm)
	}
}

// BenchmarkDTMOverhead quantifies the management loop's cost on the
// stacked (hottest) machine. The "detached" case is the default
// configuration — no controller, every actuator hook a nil check — and
// must stay within the simulator-throughput regression gate. "disabled"
// arms every actuator with a trip point no cell reaches (the loop's fixed
// cost: the thermal step, its hysteresis scan, and the hooks); "all"
// trips at the default point, so its price includes the work the policies
// cause (stall events, diverted packets), not just the hook overhead.
func BenchmarkDTMOverhead(b *testing.B) {
	run := func(b *testing.B, policy string, tripC float64, in nim.Instruments) {
		sim := newSim(b, stackedConfig(policy, tripC), 1, in)
		sim.ResetStats() // attaches the thermal loop
		b.ResetTimer()
		sim.Run(uint64(b.N))
	}
	thermal := nim.Instruments{ThermalInterval: 1_000}
	b.Run("detached", func(b *testing.B) { run(b, "", 0, nim.Instruments{}) })
	b.Run("disabled", func(b *testing.B) { run(b, "all", 500, thermal) })
	b.Run("all", func(b *testing.B) { run(b, "all", 0, thermal) })
}
