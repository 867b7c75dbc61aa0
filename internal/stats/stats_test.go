package stats

import (
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatal("fresh counter not zero")
	}
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Value = %d, want 5", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatal("Reset did not zero counter")
	}
}

func TestLatencyBasics(t *testing.T) {
	var l Latency
	if l.Mean() != 0 {
		t.Fatal("empty latency mean must be 0")
	}
	for _, v := range []uint64{10, 20, 30} {
		l.Observe(v)
	}
	if l.Count() != 3 || l.Sum() != 60 {
		t.Fatalf("count=%d sum=%d", l.Count(), l.Sum())
	}
	if l.Mean() != 20 {
		t.Fatalf("Mean = %f, want 20", l.Mean())
	}
	if l.Min() != 10 || l.Max() != 30 {
		t.Fatalf("min=%d max=%d", l.Min(), l.Max())
	}
	l.Reset()
	if l.Count() != 0 || l.Mean() != 0 {
		t.Fatal("Reset incomplete")
	}
}

// TestLatencyZeroSamples pins the zero-sample contract: Min() reports 0
// with nothing observed (ambiguous by design, for callers that know the
// accumulator is populated), while Count and String disambiguate an empty
// accumulator from a true 0-cycle minimum.
func TestLatencyZeroSamples(t *testing.T) {
	var l Latency
	if l.Min() != 0 || l.Max() != 0 || l.Count() != 0 {
		t.Fatalf("empty: min=%d max=%d count=%d, want 0 0 0", l.Min(), l.Max(), l.Count())
	}
	if got := l.String(); got != "n=0 (no samples)" {
		t.Fatalf("empty String = %q", got)
	}

	// A genuine 0-cycle sample must be reported as a real minimum.
	l.Observe(0)
	if l.Min() != 0 || l.Count() != 1 {
		t.Fatalf("after Observe(0): min=%d count=%d, want 0 1", l.Min(), l.Count())
	}

	// A later larger sample must not disturb the true 0 minimum, and a
	// fresh accumulator seeing only large samples must not report 0.
	l.Observe(7)
	if v := l.Min(); v != 0 {
		t.Fatalf("min drifted to %d after larger sample", v)
	}
	var big Latency
	big.Observe(9)
	if big.Min() != 9 || big.Count() != 1 {
		t.Fatalf("min=%d count=%d, want 9 1", big.Min(), big.Count())
	}
	big.Reset()
	if big.Count() != 0 {
		t.Fatal("Reset did not clear the sample count")
	}
}

func TestLatencyInvariants(t *testing.T) {
	f := func(samples []uint16) bool {
		var l Latency
		var sum uint64
		for _, s := range samples {
			l.Observe(uint64(s))
			sum += uint64(s)
		}
		if len(samples) == 0 {
			return l.Count() == 0
		}
		if l.Sum() != sum || l.Count() != uint64(len(samples)) {
			return false
		}
		return l.Min() <= l.Max() &&
			float64(l.Min()) <= l.Mean() && l.Mean() <= float64(l.Max())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(10, 5)
	for v := uint64(0); v < 50; v++ {
		h.Observe(v)
	}
	if h.Total() != 50 {
		t.Fatalf("Total = %d", h.Total())
	}
	for i := 0; i < 10; i++ {
		if h.Bucket(i) != 5 {
			t.Fatalf("Bucket(%d) = %d, want 5", i, h.Bucket(i))
		}
	}
	if h.Percentile(50) != 25 {
		t.Fatalf("P50 = %d, want 25", h.Percentile(50))
	}
	// Overflow lands in the last bucket.
	h.Observe(1000)
	if h.Bucket(9) != 6 {
		t.Fatalf("overflow bucket = %d, want 6", h.Bucket(9))
	}
	if h.NumBuckets() != 10 {
		t.Fatalf("NumBuckets = %d", h.NumBuckets())
	}
}

// TestHistogramOverflowPercentile is the regression test for the
// open-ended last bucket: a percentile landing there must report the
// observed maximum, not the fabricated bound n*width, which understated
// real tails (a 1000-cycle outlier used to read as "P99 = 40").
func TestHistogramOverflowPercentile(t *testing.T) {
	h := NewHistogram(4, 10) // buckets [0,10) [10,20) [20,30) [30,inf)
	for i := 0; i < 99; i++ {
		h.Observe(5)
	}
	h.Observe(1000)
	if got := h.Percentile(50); got != 10 {
		t.Fatalf("P50 = %d, want 10", got)
	}
	if got := h.Percentile(100); got != 1000 {
		t.Fatalf("P100 = %d, want the observed max 1000, not 40", got)
	}
	if h.Max() != 1000 {
		t.Fatalf("Max = %d, want 1000", h.Max())
	}

	// Samples inside the last bucket's nominal range also report the true
	// observed maximum rather than the bucket edge.
	h2 := NewHistogram(4, 10)
	h2.Observe(33)
	if got := h2.Percentile(99); got != 33 {
		t.Fatalf("P99 = %d, want 33", got)
	}
}

func TestHistogramEmptyPercentile(t *testing.T) {
	h := NewHistogram(4, 2)
	if h.Percentile(99) != 0 {
		t.Fatal("empty histogram percentile must be 0")
	}
}

func TestHistogramPanicsOnBadArgs(t *testing.T) {
	for _, args := range [][2]int{{0, 1}, {1, 0}, {-1, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%d,%d) did not panic", args[0], args[1])
				}
			}()
			NewHistogram(args[0], uint64(args[1]))
		}()
	}
}

// TestPercentileFromBuckets covers the standalone helper on
// caller-supplied counts (the sampler feeds it interval deltas rather than
// a live Histogram).
func TestPercentileFromBuckets(t *testing.T) {
	// 10 samples in [0,5), 10 in [5,10).
	buckets := []uint64{10, 10, 0, 0}
	if got := PercentileFromBuckets(buckets, 5, 9, 50); got != 5 {
		t.Fatalf("P50 = %d, want 5", got)
	}
	if got := PercentileFromBuckets(buckets, 5, 9, 95); got != 10 {
		t.Fatalf("P95 = %d, want 10", got)
	}
	// Empty counts report zero.
	if got := PercentileFromBuckets([]uint64{0, 0}, 5, 0, 95); got != 0 {
		t.Fatalf("empty P95 = %d, want 0", got)
	}
	// A percentile landing in the open last bucket reports the tracked max.
	tail := []uint64{1, 0, 0, 9}
	if got := PercentileFromBuckets(tail, 5, 123, 99); got != 123 {
		t.Fatalf("open-bucket P99 = %d, want the max 123", got)
	}
	// The histogram method and the helper agree on the same counts.
	h := NewHistogram(4, 10)
	for v := uint64(0); v < 40; v += 2 {
		h.Observe(v)
	}
	raw := make([]uint64, h.NumBuckets())
	for i := range raw {
		raw[i] = h.Bucket(i)
	}
	for _, p := range []float64{25, 50, 90, 99} {
		if a, b := h.Percentile(p), PercentileFromBuckets(raw, 10, h.Max(), p); a != b {
			t.Fatalf("P%.0f: Histogram %d vs helper %d", p, a, b)
		}
	}
}

func TestDist(t *testing.T) {
	d := NewDist(8, 4)
	if d.Count() != 0 || d.Mean() != 0 || d.P95() != 0 {
		t.Fatal("fresh Dist not zero")
	}
	for v := uint64(1); v <= 10; v++ {
		d.Observe(v)
	}
	if d.Count() != 10 || d.Sum() != 55 {
		t.Fatalf("count/sum = %d/%d, want 10/55", d.Count(), d.Sum())
	}
	if d.Mean() != 5.5 {
		t.Fatalf("mean = %f, want 5.5", d.Mean())
	}
	if d.Max() != 10 {
		t.Fatalf("max = %d, want 10", d.Max())
	}
	// P50: 5 of 10 samples lie in [0,4)+[4,8)... the 5th sample (value 5)
	// falls in bucket [4,8), whose upper edge is 8.
	if d.Percentile(50) != 8 {
		t.Fatalf("P50 = %d, want 8", d.Percentile(50))
	}
	d.Reset()
	if d.Count() != 0 || d.Sum() != 0 || d.Mean() != 0 || d.Max() != 0 || d.P95() != 0 {
		t.Fatalf("Reset left samples: %+v", d)
	}
	d.Observe(3)
	if d.Count() != 1 || d.P95() != 4 {
		t.Fatalf("post-reset observe: count %d P95 %d", d.Count(), d.P95())
	}
}

func TestSet(t *testing.T) {
	s := NewSet()
	var a, b Counter
	s.Register("b", &b)
	s.Register("a", &a)
	b.Add(2)
	a.Inc()
	b.Inc()
	names := s.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("Names = %v", names)
	}
	if s.Value("a") != 1 || s.Value("b") != 3 {
		t.Fatalf("a=%d b=%d", s.Value("a"), s.Value("b"))
	}
	if s.Value("missing") != 0 {
		t.Fatal("missing counter must read 0")
	}
}

func TestSetRegister(t *testing.T) {
	var owned Counter // a counter owned elsewhere (e.g. a Metrics field)
	owned.Add(5)
	s := NewSet()
	s.Register("owned", &owned)
	if s.Value("owned") != 5 {
		t.Fatalf("registered counter reads %d, want 5", s.Value("owned"))
	}
	owned.Inc() // increments through the owner remain visible
	if s.Value("owned") != 6 {
		t.Fatalf("registered counter reads %d after Inc, want 6", s.Value("owned"))
	}
	if names := s.Names(); len(names) != 1 || names[0] != "owned" {
		t.Fatalf("Names = %v", names)
	}
}

func TestSetSnapshot(t *testing.T) {
	s := NewSet()
	var a, b Counter
	s.Register("b", &b)
	s.Register("a", &a)
	b.Add(2)
	a.Add(1)
	derived := uint64(7)
	s.RegisterFunc("c", func() uint64 { return derived })

	snap := s.Snapshot()
	want := []NameValue{{"a", 1}, {"b", 2}, {"c", 7}}
	if len(snap) != len(want) {
		t.Fatalf("snapshot has %d entries, want %d", len(snap), len(want))
	}
	for i, nv := range want {
		if snap[i] != nv {
			t.Errorf("snapshot[%d] = %+v, want %+v", i, snap[i], nv)
		}
	}

	// The snapshot is a copy: later counter movement must not show
	// through it (the serving tier hands snapshots across goroutines).
	a.Add(10)
	derived = 100
	if snap[0].Value != 1 || snap[2].Value != 7 {
		t.Fatalf("snapshot mutated by later counter updates: %+v", snap)
	}

	if empty := NewSet().Snapshot(); len(empty) != 0 {
		t.Fatalf("empty set snapshot = %+v, want empty", empty)
	}
}
