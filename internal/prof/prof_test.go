package prof

import (
	"strings"
	"testing"
)

// TestBucketRoundTrip pins the histogram bucketing: every bucket's upper
// bound maps back into that bucket, and bucket assignment is monotonic in
// the sample value.
func TestBucketRoundTrip(t *testing.T) {
	for idx := 0; idx < histBuckets; idx++ {
		if idx < 8 && idx != 0 && idx != 4 {
			continue // octaves 0-1 have no sub-buckets; indices unreachable
		}
		ub := bucketUpper(idx)
		if got := bucketOf(ub); got != idx {
			t.Fatalf("bucketOf(bucketUpper(%d)=%d) = %d", idx, ub, got)
		}
	}
	last := -1
	for _, v := range []int64{0, 1, 2, 3, 4, 7, 8, 100, 1000, 123456, 1 << 30, 1 << 45} {
		b := bucketOf(v)
		if b < last {
			t.Fatalf("bucketOf not monotonic at %d: %d < %d", v, b, last)
		}
		last = b
	}
}

// TestPercentile checks the log-bucketed P95 lands within one bucket of
// the exact answer and never exceeds the observed max.
func TestPercentile(t *testing.T) {
	r := NewRecorder()
	for i := int64(1); i <= 100; i++ {
		r.Record(PhaseCPU, i*100) // 100ns .. 10µs uniform
	}
	a := &r.phases[PhaseCPU]
	p95 := a.percentile(95)
	if p95 < 9500 || p95 > a.max {
		t.Fatalf("p95 = %d, want in [9500, %d]", p95, a.max)
	}
	if got := a.percentile(100); got != a.max {
		t.Fatalf("p100 = %d, want max %d", got, a.max)
	}
}

// TestReportShares drives the accumulators directly and checks the
// report's invariant: shares sum to 1 with the engine phase absorbing
// exactly the unattributed residual.
func TestReportShares(t *testing.T) {
	r := NewRecorder()
	r.Record(PhaseCPU, 300)
	r.Record(PhaseProtocol, 200)
	r.Record(PhaseNet, 400)
	r.steps = 7
	r.runNs = 1000 // 100ns residual -> engine
	r.cycles = 50
	r.runs = 1
	rep := r.Report()

	var sum float64
	var engine *PhaseStat
	for i := range rep.Phases {
		sum += rep.Phases[i].Share
		if rep.Phases[i].Phase == "engine" {
			engine = &rep.Phases[i]
		}
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("shares sum to %v, want 1", sum)
	}
	if engine == nil || engine.Seconds < 99e-9 || engine.Seconds > 101e-9 {
		t.Fatalf("engine residual = %+v, want 100ns", engine)
	}
	if engine.Count != 7 {
		t.Fatalf("engine count = %d, want steps (7)", engine.Count)
	}
	if rep.CyclesPerSec != 50e9/1000 {
		t.Fatalf("cycles/sec = %v", rep.CyclesPerSec)
	}
}

// TestWindowRing checks the rolling series stays bounded and drops
// oldest-first.
func TestWindowRing(t *testing.T) {
	r := NewRecorder()
	for i := 0; i < maxWindows+10; i++ {
		r.RunEnd(int64(i), uint64(i))
	}
	if len(r.windows) != maxWindows {
		t.Fatalf("ring holds %d windows, want %d", len(r.windows), maxWindows)
	}
	if r.windows[0].cycles != 10 {
		t.Fatalf("oldest window = %d, want 10 (drop-oldest)", r.windows[0].cycles)
	}
}

// TestRecordPathAllocs pins the profiler's hot paths at zero allocations:
// the per-phase record and the window append once the ring is at
// capacity. The record path runs once per event per cycle, so a single
// allocation there would dwarf the simulator's ~1.4 allocs/cycle.
func TestRecordPathAllocs(t *testing.T) {
	r := NewRecorder()
	var ns int64
	if got := testing.AllocsPerRun(1000, func() {
		r.Record(PhaseProtocol, ns)
		ns += 37
	}); got != 0 {
		t.Fatalf("Record allocates %v/op, want 0", got)
	}
	for i := 0; i < maxWindows; i++ {
		r.RunEnd(0, 1)
	}
	if got := testing.AllocsPerRun(1000, func() {
		r.RunEnd(0, 1)
	}); got != 0 {
		t.Fatalf("RunEnd at capacity allocates %v/op, want 0", got)
	}
}

// TestWriteTimeline smoke-tests the Perfetto export: valid JSON with the
// run slices and counter tracks present.
func TestWriteTimeline(t *testing.T) {
	r := NewRecorder()
	r.Record(PhaseNet, 500)
	r.RunEnd(r.RunStart(), 1000)
	var b strings.Builder
	if err := r.WriteTimeline(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{`"traceEvents"`, `"run"`, `"cycles/sec"`, `"phase share %"`, `"nimsim host profiler"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %s in %s", want, out)
		}
	}
}

// TestWriteTable smoke-tests the text rendering nimsim -profile prints.
func TestWriteTable(t *testing.T) {
	r := NewRecorder()
	r.Record(PhaseCPU, 300)
	r.steps, r.runNs, r.cycles, r.runs = 3, 1000, 42, 1
	var b strings.Builder
	r.Report().WriteTable(&b)
	out := b.String()
	for _, want := range []string{"host profile:", "cpu", "engine", "mem:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q in:\n%s", want, out)
		}
	}
}
