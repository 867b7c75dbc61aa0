package nim_test

import (
	"net/http"
	"net/http/httptest"
	"testing"

	nim "repro"
)

func TestSchemesList(t *testing.T) {
	s := nim.Schemes()
	if len(s) != 4 {
		t.Fatalf("got %d schemes", len(s))
	}
	if s[0] != nim.CMPDNUCA || s[3] != nim.CMPDNUCA3D {
		t.Error("scheme order does not match the paper")
	}
}

func TestBenchmarksList(t *testing.T) {
	bs := nim.Benchmarks(8)
	if len(bs) != 9 {
		t.Fatalf("got %d benchmarks, want 9", len(bs))
	}
	if _, ok := nim.BenchmarkByName("mgrid", 8); !ok {
		t.Error("mgrid missing")
	}
	if _, ok := nim.BenchmarkByName("bogus", 8); ok {
		t.Error("found nonexistent benchmark")
	}
}

func TestSimulationLifecycle(t *testing.T) {
	cfg := nim.DefaultConfig(nim.CMPDNUCA3D)
	bench, _ := nim.BenchmarkByName("art", cfg.NumCPUs)
	sim, err := nim.NewSimulation(cfg, bench, 42)
	if err != nil {
		t.Fatal(err)
	}
	sim.Warm(42)
	sim.Start()
	sim.Run(20_000)
	sim.ResetStats()
	sim.Run(40_000)
	r := sim.Results()
	if r.Scheme != "CMP-DNUCA-3D" || r.Benchmark != "art" {
		t.Errorf("labels: %s/%s", r.Scheme, r.Benchmark)
	}
	if r.Cycles != 40_000 {
		t.Errorf("window = %d cycles", r.Cycles)
	}
	if r.IPC <= 0 || r.L2Hits == 0 {
		t.Errorf("no progress: %+v", r)
	}
	if err := sim.CheckSingleCopy(); err != nil {
		t.Error(err)
	}
}

// runJobs runs jobs as one sweep and returns their Results in order.
func runJobs(t *testing.T, jobs ...nim.SweepJob) []nim.Results {
	t.Helper()
	rs := nim.RunSweep(jobs, 0, nil)
	if err := nim.SweepError(rs); err != nil {
		t.Fatal(err)
	}
	out := make([]nim.Results, len(rs))
	for i, r := range rs {
		out[i] = r.Results
	}
	return out
}

func TestPaperHeadlineShape(t *testing.T) {
	// The paper's three headline claims, verified end-to-end through the
	// public API on the most L2-intensive benchmark.
	if testing.Short() {
		t.Skip("multi-scheme simulation in -short mode")
	}
	opt := nim.Options{WarmCycles: 30_000, MeasureCycles: 120_000, Seed: 1}
	var jobs []nim.SweepJob
	for _, s := range []nim.Scheme{nim.CMPDNUCA2D, nim.CMPSNUCA3D, nim.CMPDNUCA3D} {
		jobs = append(jobs, nim.NewSweepJob(nim.DefaultConfig(s), "mgrid", opt))
	}
	res := runJobs(t, jobs...)
	d2, s3, d3 := res[0], res[1], res[2]

	// 1. 3D without migration beats 2D with migration (the paper's most
	//    striking result).
	if s3.AvgL2HitLatency >= d2.AvgL2HitLatency {
		t.Errorf("SNUCA-3D (%.1f) not below DNUCA-2D (%.1f)",
			s3.AvgL2HitLatency, d2.AvgL2HitLatency)
	}
	// 2. Migration helps further in 3D.
	if d3.AvgL2HitLatency >= s3.AvgL2HitLatency {
		t.Errorf("DNUCA-3D (%.1f) not below SNUCA-3D (%.1f)",
			d3.AvgL2HitLatency, s3.AvgL2HitLatency)
	}
	// 3. 3D migrates far less than 2D, cutting movement power.
	if d3.Migrations*2 >= d2.Migrations {
		t.Errorf("3D migrations (%d) not well below 2D (%d)",
			d3.Migrations, d2.Migrations)
	}
	// 4. IPC ordering follows latency.
	if d3.IPC <= d2.IPC {
		t.Errorf("DNUCA-3D IPC (%.3f) not above DNUCA-2D (%.3f)", d3.IPC, d2.IPC)
	}
}

func TestFigure17PillarTrend(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	opt := nim.Options{WarmCycles: 30_000, MeasureCycles: 100_000, Seed: 1}
	var jobs []nim.SweepJob
	for _, p := range []int{8, 2} {
		cfg := nim.DefaultConfig(nim.CMPDNUCA3D)
		cfg.NumPillars = p
		jobs = append(jobs, nim.NewSweepJob(cfg, "swim", opt))
	}
	rs := runJobs(t, jobs...)
	r8, r2 := rs[0], rs[1]
	// Fewer pillars -> more contention -> higher latency (Figure 17).
	if r2.AvgL2HitLatency <= r8.AvgL2HitLatency {
		t.Errorf("2 pillars (%.1f) not above 8 pillars (%.1f)",
			r2.AvgL2HitLatency, r8.AvgL2HitLatency)
	}
}

func TestFigure18LayerTrend(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	opt := nim.Options{WarmCycles: 30_000, MeasureCycles: 100_000, Seed: 1}
	var jobs []nim.SweepJob
	for _, l := range []int{2, 4} {
		cfg := nim.DefaultConfig(nim.CMPSNUCA3D)
		cfg.Layers = l
		jobs = append(jobs, nim.NewSweepJob(cfg, "mgrid", opt))
	}
	rs := runJobs(t, jobs...)
	r2, r4 := rs[0], rs[1]
	// More layers -> shorter distances -> lower latency (Figure 18).
	if r4.AvgL2HitLatency >= r2.AvgL2HitLatency {
		t.Errorf("4 layers (%.1f) not below 2 layers (%.1f)",
			r4.AvgL2HitLatency, r2.AvgL2HitLatency)
	}
}

func TestReplicationAblationAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	opt := nim.Options{WarmCycles: 30_000, MeasureCycles: 150_000, Seed: 1}
	pair := nim.ReplicationAblationJobs("equake", opt)
	rs := runJobs(t, pair[:]...)
	plain, vr := rs[0], rs[1]
	if plain.Replications != 0 {
		t.Error("plain scheme replicated")
	}
	if vr.Replications == 0 {
		t.Error("VR scheme never replicated")
	}
	if vr.AvgL2HitLatency > plain.AvgL2HitLatency+1 {
		t.Errorf("VR (%.1f) regressed vs plain (%.1f)", vr.AvgL2HitLatency, plain.AvgL2HitLatency)
	}
}

func TestThermalTable3API(t *testing.T) {
	rows, err := nim.ThermalTable3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Profile.PeakC < r.Profile.AvgC || r.Profile.AvgC < r.Profile.MinC {
			t.Errorf("%s: inconsistent profile %+v", r.Name, r.Profile)
		}
	}
}

func TestStackedVsOffsetAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	opt := nim.Options{WarmCycles: 20_000, MeasureCycles: 80_000, Seed: 1}
	pair := nim.StackedVsOffsetJobs("mgrid", opt)
	rs := runJobs(t, pair[:]...)
	offset, stacked := rs[0], rs[1]
	// Stacking CPUs congests shared pillar columns: latency must not improve.
	if stacked.AvgL2HitLatency < offset.AvgL2HitLatency {
		t.Errorf("stacked (%.1f) unexpectedly beat offset (%.1f)",
			stacked.AvgL2HitLatency, offset.AvgL2HitLatency)
	}
}

func TestClusterSkipAblationAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	opt := nim.Options{WarmCycles: 20_000, MeasureCycles: 60_000, Seed: 1}
	pair := nim.ClusterSkipAblationJobs("swim", opt)
	rs := runJobs(t, pair[:]...)
	withSkip, withoutSkip := rs[0], rs[1]
	if withSkip.L2Hits == 0 || withoutSkip.L2Hits == 0 {
		t.Error("ablation runs made no progress")
	}
}

func TestMigrationThresholdSweepAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	opt := nim.Options{WarmCycles: 20_000, MeasureCycles: 60_000, Seed: 1}
	rs := runJobs(t, nim.MigrationThresholdSweepJobs("art", []int{1, 4}, opt)...)
	if len(rs) != 2 {
		t.Fatalf("got %d results", len(rs))
	}
	// A lower threshold can only migrate at least as often.
	if rs[0].Migrations < rs[1].Migrations {
		t.Errorf("threshold 1 migrated %d, threshold 4 migrated %d",
			rs[0].Migrations, rs[1].Migrations)
	}
}

// TestDefaultMuxHasNoPprof: importing nim leaves http.DefaultServeMux
// empty. net/http/pprof's init mounts /debug/pprof/ there, so a library
// that linked it would expose the profiler on any default-mux server its
// importer runs.
func TestDefaultMuxHasNoPprof(t *testing.T) {
	rec := httptest.NewRecorder()
	http.DefaultServeMux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("GET /debug/pprof/ on http.DefaultServeMux = %d, want 404", rec.Code)
	}
}
