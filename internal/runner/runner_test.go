package runner

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/stats"
)

// testJobs builds a small but heterogeneous sweep: two schemes and two
// benchmarks, short windows, distinct seeds.
func testJobs() []Job {
	var jobs []Job
	for _, s := range []config.Scheme{config.CMPSNUCA3D, config.CMPDNUCA3D} {
		for i, b := range []string{"mgrid", "swim"} {
			jobs = append(jobs, Job{
				Config:        config.Default(s),
				Benchmark:     b,
				WarmCycles:    2_000,
				MeasureCycles: 6_000,
				Seed:          uint64(1 + i),
			})
		}
	}
	return jobs
}

// TestPoolParallelMatchesSequential is the determinism guarantee: a
// parallel sweep must produce byte-identical Results to a sequential one
// for identical seeds. It also doubles as a race-detector probe for hidden
// shared state between Simulation instances (run via `go test -race`).
func TestPoolParallelMatchesSequential(t *testing.T) {
	jobs := testJobs()
	seq := Run(jobs, 1)
	par := Run(jobs, 4)
	if len(seq) != len(jobs) || len(par) != len(jobs) {
		t.Fatalf("got %d/%d results for %d jobs", len(seq), len(par), len(jobs))
	}
	for i := range jobs {
		if seq[i].Err != nil || par[i].Err != nil {
			t.Fatalf("job %d failed: seq=%v par=%v", i, seq[i].Err, par[i].Err)
		}
		if seq[i].Results != par[i].Results {
			t.Errorf("job %d (%s on %s): parallel results diverge from sequential\nseq: %+v\npar: %+v",
				i, jobs[i].Config.Scheme, jobs[i].Benchmark, seq[i].Results, par[i].Results)
		}
		if par[i].Index != i {
			t.Errorf("job %d: Index = %d, want input order preserved", i, par[i].Index)
		}
	}
}

// TestPoolMoreWorkersThanJobs checks the worker bound is clamped and a
// wide pool still returns everything in order.
func TestPoolMoreWorkersThanJobs(t *testing.T) {
	jobs := testJobs()[:2]
	res := Run(jobs, 64)
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if r.Job.Benchmark != jobs[i].Benchmark {
			t.Errorf("result %d echoes job %q, want %q", i, r.Job.Benchmark, jobs[i].Benchmark)
		}
	}
}

// TestPoolCapturesPerJobErrors checks that a failing job neither kills the
// sweep nor perturbs its neighbors' slots.
func TestPoolCapturesPerJobErrors(t *testing.T) {
	jobs := testJobs()
	bad := Job{Config: config.Default(config.CMPSNUCA3D), Benchmark: "no-such-bench",
		WarmCycles: 100, MeasureCycles: 100, Seed: 1}
	jobs = append(jobs[:2:2], append([]Job{bad}, jobs[2:]...)...)
	for _, workers := range []int{1, 3} {
		res := Run(jobs, workers)
		if err := FirstError(res); err == nil {
			t.Fatalf("workers=%d: FirstError = nil, want unknown-benchmark error", workers)
		}
		for i, r := range res {
			if i == 2 {
				if r.Err == nil {
					t.Errorf("workers=%d: bad job succeeded", workers)
				}
				continue
			}
			if r.Err != nil {
				t.Errorf("workers=%d: good job %d failed: %v", workers, i, r.Err)
			}
			if r.Results.L2Accesses == 0 {
				t.Errorf("workers=%d: good job %d measured nothing", workers, i)
			}
		}
	}
}

// TestPoolInvalidConfig checks that config validation failures are
// captured per job rather than escaping as panics.
func TestPoolInvalidConfig(t *testing.T) {
	res := Run([]Job{{Config: config.Config{}, Benchmark: "mgrid"}}, 2)
	if res[0].Err == nil {
		t.Fatal("zero config ran successfully, want a captured error")
	}
}

// TestJobDTMNeedsThermal: a managed job (a DTM policy) without a thermal
// interval fails with an error naming the policy and the missing
// interval, instead of running unmanaged.
func TestJobDTMNeedsThermal(t *testing.T) {
	j := testJobs()[0]
	j.Config.DTMPolicy = "all"
	err := Run([]Job{j}, 1)[0].Err
	if err == nil || !strings.Contains(err.Error(), `DTMPolicy "all" needs a thermal interval`) {
		t.Fatalf("managed job without ThermalInterval: err = %v, want the named DTM error", err)
	}
}

// TestPoolProgress checks that the callback fires exactly once per job,
// serially, with a monotonically increasing done count — including from
// concurrent workers, which the race detector verifies.
func TestPoolProgress(t *testing.T) {
	jobs := testJobs()
	var mu sync.Mutex
	var dones []int
	seen := make(map[int]bool)
	p := Pool{Workers: 4, Progress: func(done, total int, r Result) {
		mu.Lock()
		defer mu.Unlock()
		if total != len(jobs) {
			t.Errorf("total = %d, want %d", total, len(jobs))
		}
		dones = append(dones, done)
		seen[r.Index] = true
	}}
	p.Run(jobs)
	if len(dones) != len(jobs) {
		t.Fatalf("progress fired %d times, want %d", len(dones), len(jobs))
	}
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("done sequence %v, want 1..%d", dones, len(jobs))
		}
	}
	for i := range jobs {
		if !seen[i] {
			t.Errorf("no progress report for job %d", i)
		}
	}
}

// TestPoolSampleInterval checks that a job requesting interval metrics
// carries its time series in the result — and that jobs without it don't.
func TestPoolSampleInterval(t *testing.T) {
	jobs := testJobs()[:2]
	jobs[0].SampleInterval = 1_000
	res := Run(jobs, 2)
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
	}
	ts := res[0].Samples
	if ts == nil {
		t.Fatal("sampled job returned no time series")
	}
	if len(ts.Header) == 0 || ts.Header[0] != "cycle" {
		t.Fatalf("header = %v, want cycle first", ts.Header)
	}
	// 6k measured cycles at a 1k interval, minus the priming tick.
	if len(ts.Rows) < 4 {
		t.Fatalf("%d rows sampled over a 6k-cycle window", len(ts.Rows))
	}
	accCol := -1
	for i, h := range ts.Header {
		if h == "l2_accesses" {
			accCol = i
		}
	}
	if accCol < 0 {
		t.Fatalf("header %v missing l2_accesses", ts.Header)
	}
	var prev, accSum float64 = -1, 0
	for i, row := range ts.Rows {
		if len(row) != len(ts.Header) {
			t.Fatalf("row %d has %d fields, header %d", i, len(row), len(ts.Header))
		}
		if row[0] <= prev {
			t.Fatalf("cycles not increasing at row %d", i)
		}
		prev = row[0]
		accSum += row[accCol]
	}
	if accSum == 0 {
		t.Error("sampled deltas all zero on a live run")
	}
	if accSum > float64(res[0].Results.L2Accesses) {
		t.Errorf("deltas sum to %v, cumulative counter is %d", accSum, res[0].Results.L2Accesses)
	}
	if res[1].Samples != nil {
		t.Error("unsampled job carries a time series")
	}
}

// TestPoolRecordSpans checks the span-recording path: a job with
// RecordSpans set carries the latency decomposition in its Results, exact
// against the measured means, while plain jobs stay breakdown-free.
func TestPoolRecordSpans(t *testing.T) {
	jobs := testJobs()[:2]
	jobs[0].RecordSpans = true
	res := Run(jobs, 2)
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
	}
	bd := res[0].Results.Breakdown
	if bd == nil {
		t.Fatal("RecordSpans job returned no breakdown")
	}
	if bd.Hits.Transactions == 0 {
		t.Fatal("breakdown traced no hits on a live run")
	}
	if got, want := bd.Hits.MeanTotal, res[0].Results.AvgL2HitLatency; math.Abs(got-want) > 1e-9 {
		t.Errorf("breakdown hit mean %f != measured %f", got, want)
	}
	if res[1].Results.Breakdown != nil {
		t.Error("plain job carries a breakdown")
	}
}

// TestPoolEmpty checks the degenerate sweep.
func TestPoolEmpty(t *testing.T) {
	if res := Run(nil, 8); len(res) != 0 {
		t.Fatalf("empty sweep returned %d results", len(res))
	}
}

// BenchmarkSweepSequential and BenchmarkSweepParallel time the same
// four-job sweep at one worker versus GOMAXPROCS workers; on a multi-core
// machine the ratio is the wall-clock speedup of `-parallel`.
func BenchmarkSweepSequential(b *testing.B) { benchmarkSweep(b, 1) }
func BenchmarkSweepParallel(b *testing.B)   { benchmarkSweep(b, 0) }

func benchmarkSweep(b *testing.B, workers int) {
	jobs := testJobs()
	for i := 0; i < b.N; i++ {
		res := Run(jobs, workers)
		if err := FirstError(res); err != nil {
			b.Fatal(err)
		}
	}
}

// TestJobProgressFraction pins the per-job completion-fraction contract:
// monotonically non-decreasing, bounded by [0, 1], final value exactly
// 1.0, spanning both the warm and the measurement windows — and, because
// setting the hook switches the runner to chunked execution, that a
// hooked run's Results are identical to an unhooked one's.
func TestJobProgressFraction(t *testing.T) {
	base := Job{
		Config:        config.Default(config.CMPDNUCA3D),
		Benchmark:     "mgrid",
		WarmCycles:    3_000,
		MeasureCycles: 9_000,
		Seed:          7,
	}
	plain := Run([]Job{base}, 1)[0]
	if plain.Err != nil {
		t.Fatal(plain.Err)
	}

	var fracs []float64
	hooked := base
	hooked.Progress = func(f float64) { fracs = append(fracs, f) }
	got := Run([]Job{hooked}, 1)[0]
	if got.Err != nil {
		t.Fatal(got.Err)
	}

	if len(fracs) == 0 {
		t.Fatal("progress hook never called")
	}
	for i, f := range fracs {
		if f < 0 || f > 1 {
			t.Fatalf("fraction %d = %v outside [0, 1]", i, f)
		}
		if i > 0 && f < fracs[i-1] {
			t.Fatalf("fraction %d = %v after %v: not monotonic", i, f, fracs[i-1])
		}
	}
	if last := fracs[len(fracs)-1]; last != 1.0 {
		t.Fatalf("final fraction = %v, want exactly 1.0", last)
	}
	// ~64 chunks per phase plus the final 1.0: the hook must report real
	// intermediate progress, not just completion.
	if len(fracs) < 10 {
		t.Fatalf("only %d progress reports; chunking is not happening", len(fracs))
	}
	// The first report is one warm chunk: a small, non-zero fraction well
	// inside the warm window's [0, warmFrac] share.
	warmFrac := float64(base.WarmCycles) / float64(base.WarmCycles+base.MeasureCycles)
	if fracs[0] <= 0 || fracs[0] > warmFrac/32 {
		t.Errorf("first fraction = %v, want one warm chunk (0, %v]", fracs[0], warmFrac/32)
	}

	if got.Results != plain.Results {
		t.Errorf("chunked run diverged from unchunked:\nchunked:   %+v\nunchunked: %+v",
			got.Results, plain.Results)
	}
}

// TestJobProgressZeroWindow: zero-cycle windows are honored literally and
// must still finish with fraction 1.0.
func TestJobProgressZeroWindow(t *testing.T) {
	var fracs []float64
	j := Job{
		Config:    config.Default(config.CMPSNUCA3D),
		Benchmark: "mgrid",
		Seed:      1,
		Progress:  func(f float64) { fracs = append(fracs, f) },
	}
	if r := Run([]Job{j}, 1)[0]; r.Err != nil {
		t.Fatal(r.Err)
	}
	if len(fracs) == 0 || fracs[len(fracs)-1] != 1.0 {
		t.Fatalf("fractions = %v, want final 1.0", fracs)
	}
}

// TestJobOnSampleAndOnStats checks the streaming hooks: every sampled row
// tees through OnSample exactly as it lands in Result.Samples, and
// OnStats snapshots are monotone in every counter with a final snapshot
// matching the run's cumulative counts.
func TestJobOnSampleAndOnStats(t *testing.T) {
	var streamed [][]float64
	var headers []string
	var snaps [][]stats.NameValue
	j := Job{
		Config:        config.Default(config.CMPDNUCA3D),
		Benchmark:     "swim",
		WarmCycles:    2_000,
		MeasureCycles: 8_000,
		Seed:          3,
		Instruments:   core.Instruments{SampleInterval: 500},
		OnSample: func(header []string, row []float64) {
			headers = header // stable slice; last assignment is fine
			streamed = append(streamed, append([]float64(nil), row...))
		},
		OnStats: func(snap []stats.NameValue) { snaps = append(snaps, snap) },
	}
	r := Run([]Job{j}, 1)[0]
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Samples == nil {
		t.Fatal("no samples despite SampleInterval")
	}
	if len(streamed) != len(r.Samples.Rows) {
		t.Fatalf("streamed %d rows, series has %d", len(streamed), len(r.Samples.Rows))
	}
	for i := range streamed {
		for jx, v := range r.Samples.Rows[i] {
			if streamed[i][jx] != v {
				t.Fatalf("streamed row %d = %v != series row %v", i, streamed[i], r.Samples.Rows[i])
			}
		}
	}
	if len(headers) != len(r.Samples.Header) {
		t.Fatalf("streamed header %v != series header %v", headers, r.Samples.Header)
	}

	if len(snaps) < 2 {
		t.Fatalf("only %d stats snapshots; want one per measure chunk plus completion", len(snaps))
	}
	value := func(snap []stats.NameValue, name string) uint64 {
		for _, nv := range snap {
			if nv.Name == name {
				return nv.Value
			}
		}
		t.Fatalf("counter %q missing from snapshot", name)
		return 0
	}
	var prev uint64
	for i, snap := range snaps {
		v := value(snap, "l2_accesses")
		if v < prev {
			t.Fatalf("snapshot %d l2_accesses = %d after %d: cumulative counters went backwards", i, v, prev)
		}
		prev = v
	}
	final := snaps[len(snaps)-1]
	if got := value(final, "l2_accesses"); got != r.Results.L2Accesses {
		t.Errorf("final snapshot l2_accesses = %d, Results.L2Accesses = %d", got, r.Results.L2Accesses)
	}
}
