package obs

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"
)

func TestPacketSpanAccounting(t *testing.T) {
	var ps PacketSpan
	ps.AddSourceWait(3) // 3 queue
	ps.AddHop(1, 1)     // uncontended hop: 1 link
	ps.AddHop(5, 1)     // congested hop: 1 link + 4 queue
	ps.AddBus(1)        // same-cycle grant: 1 transfer
	ps.AddBus(4)        // 1 transfer + 3 arbitration wait
	ps.AddBus(0)        // free vertical forward: nothing
	want := PacketSpan{Queue: 7, Link: 2, BusWait: 3, BusXfer: 2}
	if ps != want {
		t.Fatalf("ledger %+v, want %+v", ps, want)
	}

	// Ejection at total latency 20 with a 4-flit packet: the 6 remaining
	// cycles split into 3 serialization (link) + 3 body-flit stall (queue).
	ps.Finish(20, 4)
	if ps.Total() != 20 {
		t.Fatalf("Finish did not close the ledger: total %d, want 20", ps.Total())
	}
	if ps.Link != 2+3 || ps.Queue != 7+3 {
		t.Fatalf("Finish split %+v, want link 5 queue 10", ps)
	}

	// A head flit arriving before the pipeline minimum clamps to residence.
	var clamp PacketSpan
	clamp.AddHop(0, 4)
	if clamp.Link != 0 || clamp.Queue != 0 {
		t.Fatalf("zero-residence hop charged %+v", clamp)
	}

	// A 1-flit packet whose remainder is pure queueing.
	one := PacketSpan{Link: 2}
	one.Finish(5, 1)
	if one.Link != 2 || one.Queue != 3 {
		t.Fatalf("1-flit remainder %+v, want link 2 queue 3", one)
	}
}

func TestSpanRecorderConservationCheck(t *testing.T) {
	r := NewSpanRecorder()
	ok := r.Begin(1, 0, 100)
	r.Mark(ok, CompSearch1, 110)
	r.Mark(ok, CompDram, 120)
	r.FinishTxn(ok, 20, true)

	bad := r.Begin(2, 3, 200)
	r.Mark(bad, CompTag, 204)
	r.FinishTxn(bad, 7, false) // components sum to 4

	n, first := r.Mismatches()
	if n != 1 {
		t.Fatalf("mismatches %d, want 1", n)
	}
	for _, frag := range []string{"txn 0x2", "cpu 3", "sum to 4", "measured 7"} {
		if !strings.Contains(first, frag) {
			t.Errorf("first mismatch %q missing %q", first, frag)
		}
	}
	if r.Finished() != 2 {
		t.Fatalf("finished %d, want 2", r.Finished())
	}

	r.Reset()
	if n, first := r.Mismatches(); n != 0 || first != "" || r.Finished() != 0 {
		t.Fatalf("Reset left state: %d %q %d", n, first, r.Finished())
	}
}

// TestSpanRecorderSteadyStateAllocs pins the pooled hot path at zero
// allocations: once the free lists are primed, a full transaction
// lifecycle — begin, an attempt chain, component marks, fold, finish —
// allocates nothing.
func TestSpanRecorderSteadyStateAllocs(t *testing.T) {
	r := NewSpanRecorder()
	cycle := func() {
		ts := r.Begin(7, 1, 1000)
		ch := r.GetChain(1000)
		ch.Req.AddHop(2, 1)
		ch.Tag, ch.Bank = 4, 5
		ch.Rep.AddHop(3, 1)
		r.Mark(ts, CompSearch1, 1002)
		r.FoldChain(ts, ch, 1016)
		r.PutChain(ch)
		r.FinishTxn(ts, 16, false)
	}
	cycle() // prime the pools
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("steady-state span recording allocates %.1f per txn, want 0", n)
	}
}

// TestSpanEmissionTiles checks the sink-facing view: the EvSpan intervals
// of one transaction tile [issue, completion] contiguously (excluding the
// pre-issue l1 interval), with no zero-duration noise.
func TestSpanEmissionTiles(t *testing.T) {
	r := NewSpanRecorder()
	sink := NewRingSink(64)
	r.SetSink(sink)

	ts := r.Begin(9, 2, 1000)
	r.ChargeL1(ts, 2) // pre-issue, emitted at 998
	ch := r.GetChain(1000)
	ch.Req.Queue, ch.Req.Link = 1, 3
	ch.Tag, ch.Bank = 4, 5
	ch.Rep.Link = 6
	r.Mark(ts, CompSearch1, 1005)
	r.FoldChain(ts, ch, 1024)
	r.FinishTxn(ts, 24, false)

	evs := sink.Events()
	for _, e := range evs {
		if e.Kind != EvSpan {
			t.Fatalf("non-span event %v", e.Kind)
		}
		if e.B == 0 {
			t.Fatalf("zero-duration interval emitted: %+v", e)
		}
		if e.ID != 9 || e.X != 2 {
			t.Fatalf("wrong identity on %+v", e)
		}
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].Cycle < evs[j].Cycle })
	if Component(evs[0].A) != CompL1 || evs[0].Cycle != 998 {
		t.Fatalf("first interval %+v, want pre-issue l1 at 998", evs[0])
	}
	at := uint64(1000)
	var sum uint64
	for _, e := range evs[1:] {
		if e.Cycle != at {
			t.Fatalf("interval %s starts at %d, want %d (gap or overlap)",
				Component(e.A), e.Cycle, at)
		}
		at += e.B
		sum += e.B
	}
	if at != 1024 || sum != 24 {
		t.Fatalf("intervals cover [1000,%d) summing %d, want [1000,1024) summing 24", at, sum)
	}
}

func TestBreakdownReportSharesAndTable(t *testing.T) {
	r := NewSpanRecorder()
	for i := 0; i < 10; i++ {
		ts := r.Begin(uint64(i), 0, 0)
		r.Mark(ts, CompReqLink, 10)
		r.Mark(ts, CompTag, 14)
		r.Mark(ts, CompBank, 19)
		r.FinishTxn(ts, 19, i%2 == 0) // alternate hit/miss
	}
	bd := r.Report()
	if bd.Hits.Transactions != 5 || bd.Misses.Transactions != 5 {
		t.Fatalf("class counts %d/%d, want 5/5", bd.Hits.Transactions, bd.Misses.Transactions)
	}
	var shares float64
	for _, c := range bd.Hits.Components {
		if c.Name != CompL1.String() {
			shares += c.Share
		}
	}
	if shares < 0.999 || shares > 1.001 {
		t.Fatalf("non-l1 shares sum to %f, want 1", shares)
	}
	// P95 reports the histogram bucket's upper edge: 19 falls in bucket
	// [16,24) of the 8-cycle-wide histogram.
	if bd.Hits.MeanTotal != 19 || bd.Hits.P95Total != 24 {
		t.Fatalf("totals %f/%d, want 19/24", bd.Hits.MeanTotal, bd.Hits.P95Total)
	}

	var buf bytes.Buffer
	if err := bd.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"req-link", "tag", "bank", "total", "5 hits, 5 misses"} {
		if !strings.Contains(out, frag) {
			t.Errorf("table missing %q:\n%s", frag, out)
		}
	}
	if strings.Contains(out, "dram") {
		t.Errorf("table shows all-zero component:\n%s", out)
	}
}

// TestChromeTraceSpanTracks checks the exporter's span rendering: EvSpan
// events become Perfetto complete slices on per-CPU tracks under a
// synthetic "transactions" process, and the trace metadata carries the
// capture drop count.
func TestChromeTraceSpanTracks(t *testing.T) {
	events := []Event{
		{Cycle: 50, Kind: EvInject, X: 1, Y: 2, Layer: 0, ID: 77},
		{Cycle: 60, Kind: EvSpan, X: 3, ID: 42, A: uint64(CompRepLink), B: 9},
	}
	var buf bytes.Buffer
	if err := WriteChromeTraceMeta(&buf, events, TraceMeta{DroppedEvents: 5}); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    uint64         `json:"ts"`
			Dur   uint64         `json:"dur"`
			PID   int            `json:"pid"`
			TID   int            `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		OtherData map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if got := tr.OtherData["dropped_events"]; got != float64(5) {
		t.Fatalf("otherData dropped_events = %v, want 5", got)
	}
	var span, procName, threadName bool
	for _, e := range tr.TraceEvents {
		switch {
		case e.Phase == "X":
			span = true
			if e.Name != "rep-link" || e.TS != 60 || e.Dur != 9 || e.TID != 3 {
				t.Fatalf("span slice %+v", e)
			}
			if e.Args["txn"] != float64(42) {
				t.Fatalf("span args %v", e.Args)
			}
		case e.Phase == "M" && e.Name == "process_name" && e.Args["name"] == "transactions":
			procName = true
		case e.Phase == "M" && e.Name == "thread_name" && e.Args["name"] == "cpu 3":
			threadName = true
		}
	}
	if !span || !procName || !threadName {
		t.Fatalf("missing span rendering: slice %v process %v thread %v", span, procName, threadName)
	}

	// Without metadata the otherData section stays absent.
	buf.Reset()
	if err := WriteChromeTraceMeta(&buf, events[:1], TraceMeta{}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "otherData") {
		t.Fatalf("zero meta emitted otherData: %s", buf.String())
	}
}
