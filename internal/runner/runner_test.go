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

// chunkCall is one OnChunk call as a test saw it.
type chunkCall struct {
	fraction  float64
	measuring bool
	cycle     uint64 // the machine's clock at the call
}

// recordChunks returns an OnChunk hook that appends every call to calls.
func recordChunks(calls *[]chunkCall) func(*core.System, float64, bool) {
	return func(sys *core.System, f float64, measuring bool) {
		*calls = append(*calls, chunkCall{f, measuring, sys.Engine.Now()})
	}
}

// TestJobProgressFraction pins the OnChunk contract: the fraction is
// monotonically non-decreasing, bounded by [0, 1], spans both the warm
// and the measurement windows and ends at exactly 1.0; measuring is false
// after every warm chunk and true after every measurement chunk and at
// completion; and a hooked run's Results are identical to an unhooked
// one's.
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

	var calls []chunkCall
	hooked := base
	hooked.OnChunk = recordChunks(&calls)
	got := Run([]Job{hooked}, 1)[0]
	if got.Err != nil {
		t.Fatal(got.Err)
	}

	if len(calls) == 0 {
		t.Fatal("OnChunk never called")
	}
	for i, c := range calls {
		if c.fraction < 0 || c.fraction > 1 {
			t.Fatalf("fraction %d = %v outside [0, 1]", i, c.fraction)
		}
		if i > 0 && c.fraction < calls[i-1].fraction {
			t.Fatalf("fraction %d = %v after %v: not monotonic", i, c.fraction, calls[i-1].fraction)
		}
		// The warm window steps cycles [0, WarmCycles); every call after
		// a later cycle is in the measurement window.
		if want := c.cycle > base.WarmCycles; c.measuring != want {
			t.Fatalf("call %d at cycle %d: measuring = %v, want %v", i, c.cycle, c.measuring, want)
		}
	}
	last := calls[len(calls)-1]
	if last.fraction != 1.0 || !last.measuring || last.cycle != base.WarmCycles+base.MeasureCycles {
		t.Fatalf("final call = %+v, want fraction exactly 1.0, measuring, at cycle %d",
			last, base.WarmCycles+base.MeasureCycles)
	}
	// ~64 chunks per window plus the final call: the hook must see real
	// intermediate progress, not just completion.
	if len(calls) < 10 {
		t.Fatalf("only %d OnChunk calls; chunking is not happening", len(calls))
	}
	// The first call follows one warm chunk: a small, non-zero fraction
	// well inside the warm window's [0, warmFrac] share.
	warmFrac := float64(base.WarmCycles) / float64(base.WarmCycles+base.MeasureCycles)
	if calls[0].fraction <= 0 || calls[0].fraction > warmFrac/32 {
		t.Errorf("first fraction = %v, want one warm chunk (0, %v]", calls[0].fraction, warmFrac/32)
	}

	if got.Results != plain.Results {
		t.Errorf("hooked run diverged from unhooked:\nhooked:   %+v\nunhooked: %+v",
			got.Results, plain.Results)
	}
}

// TestJobProgressZeroWindow: zero-cycle windows are honored literally and
// must still finish with a measuring call at fraction 1.0.
func TestJobProgressZeroWindow(t *testing.T) {
	var calls []chunkCall
	j := Job{
		Config:    config.Default(config.CMPSNUCA3D),
		Benchmark: "mgrid",
		Seed:      1,
	}
	j.OnChunk = recordChunks(&calls)
	if r := Run([]Job{j}, 1)[0]; r.Err != nil {
		t.Fatal(r.Err)
	}
	if len(calls) == 0 || calls[len(calls)-1].fraction != 1.0 || !calls[len(calls)-1].measuring {
		t.Fatalf("calls = %+v, want a final measuring call at 1.0", calls)
	}
}

// TestJobOnChunkRowsAndCounters checks what OnChunk reads of the machine
// as the daemon does. The sampler rows it copies out across chunks equal
// Result.Samples row for row, so rows stream during the run and the
// sampler never changes a row once made. The counter snapshots it takes
// in the measurement window are monotone in every counter, and the final
// one matches the run's cumulative counts.
func TestJobOnChunkRowsAndCounters(t *testing.T) {
	var rows [][]float64
	var header []string
	var snaps [][]stats.NameValue
	batches := 0 // calls that saw new rows
	j := Job{
		Config:        config.Default(config.CMPDNUCA3D),
		Benchmark:     "swim",
		WarmCycles:    2_000,
		MeasureCycles: 8_000,
		Seed:          3,
		Instruments:   core.Instruments{SampleInterval: 500},
		OnChunk: func(sys *core.System, _ float64, measuring bool) {
			if sm := sys.Sampler(); sm != nil {
				ts := sm.Series()
				if len(ts.Rows) > len(rows) {
					batches++
					header = append([]string(nil), ts.Header...)
				}
				for _, row := range ts.Rows[len(rows):] {
					rows = append(rows, append([]float64(nil), row...))
				}
			}
			if measuring {
				snaps = append(snaps, sys.StatsRegistry().Snapshot())
			}
		},
	}
	r := Run([]Job{j}, 1)[0]
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Samples == nil {
		t.Fatal("no samples despite SampleInterval")
	}
	if len(rows) != len(r.Samples.Rows) {
		t.Fatalf("hook saw %d rows, series has %d", len(rows), len(r.Samples.Rows))
	}
	for i := range rows {
		for jx, v := range r.Samples.Rows[i] {
			if rows[i][jx] != v {
				t.Fatalf("row %d as first seen = %v != series row %v", i, rows[i], r.Samples.Rows[i])
			}
		}
	}
	if len(header) != len(r.Samples.Header) || header[0] != "cycle" {
		t.Fatalf("hook saw header %v, series header %v", header, r.Samples.Header)
	}
	if batches < 2 {
		t.Fatalf("rows appeared in %d OnChunk calls; want them streamed across the window", batches)
	}

	if len(snaps) < 2 {
		t.Fatalf("only %d counter snapshots; want one per measure chunk plus completion", len(snaps))
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
	prev := map[string]uint64{}
	for i, snap := range snaps {
		for _, nv := range snap {
			if nv.Value < prev[nv.Name] {
				t.Fatalf("snapshot %d %s = %d after %d: cumulative counters went backwards",
					i, nv.Name, nv.Value, prev[nv.Name])
			}
			prev[nv.Name] = nv.Value
		}
	}
	final := snaps[len(snaps)-1]
	if got := value(final, "l2_accesses"); got != r.Results.L2Accesses {
		t.Errorf("final snapshot l2_accesses = %d, Results.L2Accesses = %d", got, r.Results.L2Accesses)
	}
}
