package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestNilProbeIsNoOp(t *testing.T) {
	var p *Probe
	p.Emit(Event{Kind: EvInject}) // must not panic
	if NewProbe(nil) != nil {
		t.Fatal("NewProbe(nil) must return a nil probe")
	}
}

func TestKindMetadata(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if k.Category() >= numCategories {
			t.Errorf("kind %d has no category", k)
		}
		if strings.HasPrefix(k.String(), "Kind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
	cats := map[Category]bool{}
	for k := Kind(0); k < numKinds; k++ {
		cats[k.Category()] = true
	}
	if len(cats) != int(numCategories) {
		t.Fatalf("%d categories covered by kinds, want %d", len(cats), numCategories)
	}
}

func TestRingSinkWrap(t *testing.T) {
	r := NewRingSink(3)
	probe := NewProbe(r)
	for i := uint64(0); i < 5; i++ {
		probe.Emit(Event{Cycle: i, Kind: EvHop, ID: i})
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	if r.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", r.Dropped())
	}
	evs := r.Events()
	for i, want := range []uint64{2, 3, 4} {
		if evs[i].ID != want {
			t.Fatalf("Events()[%d].ID = %d, want %d (oldest-first)", i, evs[i].ID, want)
		}
	}
	r.Reset()
	if r.Len() != 0 || r.Dropped() != 0 || len(r.Events()) != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestWriteChromeTraceRoundTrips(t *testing.T) {
	events := []Event{
		{Cycle: 10, Kind: EvInject, X: 1, Y: 2, Layer: 0, ID: 7, A: 4},
		{Cycle: 12, Kind: EvBusGrant, X: 3, Y: 3, Layer: 0, ID: 0, A: 0, B: 1},
		{Cycle: 11, Kind: EvMigStep, X: 0, Y: 0, Layer: 1, ID: 0xbeef, A: 2, B: 3},
		{Cycle: 15, Kind: EvCohInval, X: 1, Y: 2, Layer: 1, ID: 0xbeef, A: 5},
	}
	var buf bytes.Buffer
	if err := WriteChromeTraceMeta(&buf, events, TraceMeta{}); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Cat   string `json:"cat"`
			Phase string `json:"ph"`
			TS    uint64 `json:"ts"`
			PID   int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	cats := map[string]bool{}
	var lastTS uint64
	instants := 0
	for _, te := range parsed.TraceEvents {
		if te.Phase != "i" {
			continue
		}
		instants++
		cats[te.Cat] = true
		if te.TS < lastTS {
			t.Fatalf("instant events not cycle-sorted: %d after %d", te.TS, lastTS)
		}
		lastTS = te.TS
	}
	if instants != len(events) {
		t.Fatalf("%d instant events, want %d", instants, len(events))
	}
	for _, want := range []string{"packet", "dtdma", "migration", "coherence"} {
		if !cats[want] {
			t.Errorf("category %q missing from trace", want)
		}
	}
}

func TestSamplerIntervalsAndDeltas(t *testing.T) {
	set := stats.NewSet()
	var hits stats.Counter
	set.Register("hits", &hits) // registered before AddCounterSet so it gets a column
	s := NewSampler(10)
	s.AddCounterSet(set)
	s.AddGauge("util", func(cycle uint64) float64 { return float64(cycle) / 100 })

	for cycle := uint64(0); cycle <= 30; cycle++ {
		hits.Add(2)
		s.Tick(cycle)
	}
	ts := s.Series()
	wantHdr := []string{"cycle", "hits", "util"}
	if len(ts.Header) != len(wantHdr) {
		t.Fatalf("header %v, want %v", ts.Header, wantHdr)
	}
	for i := range wantHdr {
		if ts.Header[i] != wantHdr[i] {
			t.Fatalf("header %v, want %v", ts.Header, wantHdr)
		}
	}
	if len(ts.Rows) != 3 {
		t.Fatalf("%d rows, want 3 (cycles 10, 20, 30)", len(ts.Rows))
	}
	// The tick at cycle 0 primes the baselines (cumulative 2 at that
	// point), so every emitted row is a pure 10-cycle delta of 20.
	if ts.Rows[0][0] != 10 || ts.Rows[0][1] != 20 {
		t.Fatalf("row 0 = %v, want cycle 10 delta 20", ts.Rows[0])
	}
	if ts.Rows[1][1] != 20 || ts.Rows[2][1] != 20 {
		t.Fatalf("delta rows = %v, %v, want 20 each", ts.Rows[1], ts.Rows[2])
	}
	if ts.Rows[1][2] != 0.2 {
		t.Fatalf("gauge = %v, want 0.2", ts.Rows[1][2])
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestSamplerCounterReset(t *testing.T) {
	set := stats.NewSet()
	c := &stats.Counter{}
	set.Register("n", c)
	s := NewSampler(5)
	s.AddCounterSet(set)
	c.Add(7)
	s.Tick(4) // primes the baseline at 7, emits nothing
	s.Tick(5)
	c.Reset() // e.g. ResetStats discarding warm-up
	c.Add(3)
	s.Tick(10)
	ts := s.Series()
	if len(ts.Rows) != 2 || ts.Rows[0][1] != 0 {
		t.Fatalf("rows = %v, want priming tick then a zero delta at cycle 5", ts.Rows)
	}
	if ts.Rows[1][1] != 3 {
		t.Fatalf("post-reset delta = %v, want 3 (not negative wraparound)", ts.Rows[1][1])
	}
}

func TestSamplerFirstTickPrimes(t *testing.T) {
	set := stats.NewSet()
	c := &stats.Counter{}
	set.Register("n", c)
	c.Add(1_000_000) // pre-attach history that must not leak into row 0
	s := NewSampler(10)
	s.AddCounterSet(set)
	s.Tick(10) // boundary cycle, but the first tick only primes
	if len(s.Series().Rows) != 0 {
		t.Fatal("first tick must prime, not emit a row")
	}
	c.Add(5)
	s.Tick(20)
	ts := s.Series()
	if len(ts.Rows) != 1 || ts.Rows[0][1] != 5 {
		t.Fatalf("rows = %v, want one row with delta 5 (history excluded)", ts.Rows)
	}
}

func TestTimeSeriesCSV(t *testing.T) {
	ts := &TimeSeries{
		Header: []string{"cycle", "x"},
		Rows:   [][]float64{{10, 1}, {20, 2.5}},
	}
	var buf bytes.Buffer
	if err := ts.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "cycle,x\n10,1\n20,2.5000\n"
	if buf.String() != want {
		t.Fatalf("CSV = %q, want %q", buf.String(), want)
	}
	buf.Reset()
	if err := ts.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Header []string    `json:"header"`
		Rows   [][]float64 `json:"rows"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatal(err)
	}
	if len(parsed.Rows) != 2 || parsed.Rows[1][1] != 2.5 {
		t.Fatalf("JSON round-trip = %+v", parsed)
	}
}

func TestEmptySamplerSeriesHasHeader(t *testing.T) {
	s := NewSampler(100)
	s.AddGauge("g", func(uint64) float64 { return 0 })
	ts := s.Series()
	if len(ts.Header) != 2 || ts.Header[0] != "cycle" || ts.Header[1] != "g" {
		t.Fatalf("empty series header = %v", ts.Header)
	}
	if len(ts.Rows) != 0 {
		t.Fatal("empty series must have no rows")
	}
}
