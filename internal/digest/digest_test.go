package digest

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestMixAvalanche sanity-checks the finalizer: distinct inputs map to
// distinct outputs and zero does not fix-point (a zeroed subsystem still
// advances its chain).
func TestMixAvalanche(t *testing.T) {
	seen := map[uint64]uint64{}
	for _, x := range []uint64{0, 1, 2, 1 << 63, ^uint64(0), 0xDEADBEEF} {
		m := Mix(x)
		if m == x {
			t.Errorf("Mix(%#x) = input (fixed point)", x)
		}
		if prev, dup := seen[m]; dup {
			t.Errorf("Mix collision: %#x and %#x both -> %#x", prev, x, m)
		}
		seen[m] = x
	}
}

func TestLaneNames(t *testing.T) {
	want := []string{"cpu", "cache", "noc", "dtdma", "engine", "thermal", "dtm", "rng"}
	if len(want) != NumLanes {
		t.Fatalf("test out of date: %d lane names for %d lanes", len(want), NumLanes)
	}
	for l, name := range want {
		if got := Lane(l).String(); got != name {
			t.Errorf("Lane(%d).String() = %q, want %q", l, got, name)
		}
	}
	if got := Lane(-1).String(); got != "unknown" {
		t.Errorf("Lane(-1).String() = %q", got)
	}
	if got := Lane(NumLanes).String(); got != "unknown" {
		t.Errorf("Lane(NumLanes).String() = %q", got)
	}
}

// fixedWalker folds one word per lane: the per-lane value from vals,
// keyed by a counter so successive snapshots fold fresh state.
func fixedWalker(vals *[NumLanes]uint64) func(*Recorder) {
	return func(r *Recorder) {
		for l := 0; l < NumLanes; l++ {
			r.BeginLane(Lane(l))
			r.Fold(vals[l])
		}
	}
}

// TestRecorderStream checks interval gating, cycle-0 skipping, and the
// cumulative-record invariants Compare relies on.
func TestRecorderStream(t *testing.T) {
	var vals [NumLanes]uint64
	rec := NewRecorder(10)
	rec.SetWalker(fixedWalker(&vals))
	for c := uint64(0); c <= 100; c++ {
		vals[0] = c
		rec.Tick(c)
	}
	recs := rec.Records()
	if len(recs) != 10 {
		t.Fatalf("got %d records, want 10 (cycles 10..100, cycle 0 skipped)", len(recs))
	}
	for i, r := range recs {
		if want := uint64(10 * (i + 1)); r.Cycle != want {
			t.Errorf("record %d at cycle %d, want %d", i, r.Cycle, want)
		}
		if r.Digest == 0 {
			t.Errorf("record %d has zero digest", i)
		}
		if i > 0 && r.Digest == recs[i-1].Digest {
			t.Errorf("records %d and %d share a digest despite differing state", i-1, i)
		}
	}
	if rec.Report().Digest != hex16(recs[len(recs)-1].Digest) {
		t.Error("Report().Digest != last record's digest")
	}
	if rec.LaneValue(LaneCPU) != recs[len(recs)-1].Lanes[LaneCPU] {
		t.Error("LaneValue(cpu) != last record's cpu chain")
	}
}

// TestRecorderDeterminism: identical fold sequences give identical
// streams; a single-word difference in one lane changes that lane's
// chain and every later overall digest.
func TestRecorderDeterminism(t *testing.T) {
	run := func(perturbAt uint64) []Record {
		var vals [NumLanes]uint64
		rec := NewRecorder(5)
		rec.SetWalker(fixedWalker(&vals))
		for c := uint64(1); c <= 50; c++ {
			vals[LaneNoC] = c
			if c == perturbAt {
				vals[LaneNoC]++
			}
			rec.Tick(c)
		}
		return rec.Records()
	}
	a, b := run(0), run(0)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("identical runs diverged at record %d", i)
		}
	}
	if _, ok := Compare(a, b); ok {
		t.Error("Compare found divergence between identical streams")
	}

	// Perturb cycle 25: records 1..4 (cycles 5..20) agree, record 5
	// (cycle 25) diverges in the noc lane.
	c := run(25)
	div, ok := Compare(a, c)
	if !ok {
		t.Fatal("Compare missed a real divergence")
	}
	if div.Cycle != 25 || div.Index != 4 || div.Lane != LaneNoC {
		t.Errorf("divergence at cycle %d index %d lane %s, want cycle 25 index 4 lane noc",
			div.Cycle, div.Index, div.Lane)
	}
	for i := 0; i < div.Index; i++ {
		if a[i] != c[i] {
			t.Errorf("record %d differs before the reported divergence", i)
		}
	}
}

// TestCompareEdges exercises first-record and last-record divergences,
// unequal lengths, and empty streams — the binary search's boundaries.
func TestCompareEdges(t *testing.T) {
	mk := func(n int, divergeFrom int) []Record {
		out := make([]Record, n)
		d := uint64(0)
		for i := range out {
			word := uint64(i)
			if i >= divergeFrom {
				word++
			}
			var lanes [NumLanes]uint64
			lanes[LaneEngine] = Mix(word)
			d = Mix(d ^ lanes[LaneEngine])
			out[i] = Record{Cycle: uint64(i+1) * 100, Lanes: lanes, Digest: d}
		}
		return out
	}
	base := mk(20, 99)

	if _, ok := Compare(nil, nil); ok {
		t.Error("Compare(nil, nil) reported divergence")
	}
	if _, ok := Compare(base, nil); ok {
		t.Error("Compare against empty stream reported divergence")
	}
	if div, ok := Compare(base, mk(20, 0)); !ok || div.Index != 0 || div.Cycle != 100 {
		t.Errorf("first-record divergence: got %+v ok=%v", div, ok)
	}
	if div, ok := Compare(base, mk(20, 19)); !ok || div.Index != 19 || div.Cycle != 2000 {
		t.Errorf("last-record divergence: got %+v ok=%v", div, ok)
	}
	// A shorter stream that agrees on its whole length: no divergence —
	// the comparison covers only the common prefix.
	if _, ok := Compare(base, base[:7]); ok {
		t.Error("prefix-equal streams reported divergence")
	}
	// Divergence beyond the shorter stream's end is invisible.
	if _, ok := Compare(base[:10], mk(20, 15)); ok {
		t.Error("divergence past the common prefix reported")
	}
	div, ok := Compare(base[:10], mk(20, 4))
	if !ok || div.Index != 4 {
		t.Errorf("mid-prefix divergence with unequal lengths: got %+v ok=%v", div, ok)
	}
	if div.Lane != LaneEngine {
		t.Errorf("divergent lane %s, want engine", div.Lane)
	}
}

// TestReportShape checks the JSON summary: 16-hex digests, all lanes in
// order, and the stream excluded from serialization.
func TestReportShape(t *testing.T) {
	var vals [NumLanes]uint64
	rec := NewRecorder(1)
	rec.SetWalker(fixedWalker(&vals))
	for c := uint64(1); c <= 5; c++ {
		vals[0] = c
		rec.Tick(c)
	}
	rep := rec.Report()
	if rep.Interval != 1 || rep.Records != 5 || len(rep.Stream) != 5 {
		t.Fatalf("report summary wrong: %+v", rep)
	}
	if len(rep.Digest) != 16 || strings.Trim(rep.Digest, "0123456789abcdef") != "" {
		t.Errorf("digest %q is not 16 lowercase hex digits", rep.Digest)
	}
	if len(rep.Lanes) != NumLanes {
		t.Fatalf("report has %d lanes, want %d", len(rep.Lanes), NumLanes)
	}
	for l, ld := range rep.Lanes {
		if ld.Lane != Lane(l).String() {
			t.Errorf("lane %d named %q, want %q", l, ld.Lane, Lane(l).String())
		}
		if len(ld.Digest) != 16 {
			t.Errorf("lane %s digest %q is not 16 digits", ld.Lane, ld.Digest)
		}
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "Stream") || strings.Contains(string(b), "stream") {
		t.Errorf("stream leaked into report JSON: %s", b)
	}
}

// TestReserveIdempotent: Reserve never shrinks and repeated calls with
// satisfied capacity do nothing.
func TestReserveIdempotent(t *testing.T) {
	rec := NewRecorder(1)
	rec.SetWalker(func(r *Recorder) { r.BeginLane(LaneCPU); r.Fold(1) })
	rec.Reserve(100)
	c := cap(rec.stream)
	rec.Reserve(50)
	if cap(rec.stream) != c {
		t.Error("Reserve with satisfied capacity reallocated")
	}
	for i := uint64(1); i <= 100; i++ {
		rec.Tick(i)
	}
	if cap(rec.stream) != c {
		t.Error("recording within reserved capacity reallocated")
	}
}

func TestNewRecorderPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewRecorder(0) did not panic")
		}
	}()
	NewRecorder(0)
}
