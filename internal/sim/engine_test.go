package sim

import "testing"

// call adapts a closure to Handler for tests that schedule ad-hoc events.
type call func()

func (f call) HandleEvent(uint8, any) { f() }

func TestEngineClock(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatal("fresh engine must start at cycle 0")
	}
	e.Run(10)
	if e.Now() != 10 {
		t.Fatalf("Now = %d, want 10", e.Now())
	}
}

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.AfterEvent(5, call(func() { order = append(order, 2) }), 0, nil)
	e.AfterEvent(3, call(func() { order = append(order, 1) }), 0, nil)
	e.AfterEvent(5, call(func() { order = append(order, 3) }), 0, nil) // same cycle, later schedule
	e.Run(10)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestEventFiresAtExactCycle(t *testing.T) {
	e := NewEngine()
	var fired uint64
	e.AfterEvent(7, call(func() { fired = e.Now() }), 0, nil)
	e.Run(20)
	if fired != 7 {
		t.Fatalf("event fired at %d, want 7", fired)
	}
}

func TestZeroDelayEventRunsNextStep(t *testing.T) {
	e := NewEngine()
	ran := false
	e.AfterEvent(0, call(func() { ran = true }), 0, nil)
	e.Step()
	if !ran {
		t.Fatal("zero-delay event must run on the next Step")
	}
}

func TestEventMayScheduleSameCycle(t *testing.T) {
	e := NewEngine()
	var hits []uint64
	e.AfterEvent(2, call(func() {
		hits = append(hits, e.Now())
		e.AfterEvent(0, call(func() { hits = append(hits, e.Now()) }), 0, nil)
	}), 0, nil)
	e.Run(5)
	if len(hits) != 2 || hits[0] != 2 || hits[1] != 2 {
		t.Fatalf("hits = %v, want [2 2]", hits)
	}
}

func TestTickersRunEveryCycle(t *testing.T) {
	e := NewEngine()
	var ticks []uint64
	e.Register(TickerFunc(func(c uint64) { ticks = append(ticks, c) }))
	e.Run(3)
	if len(ticks) != 3 || ticks[0] != 0 || ticks[2] != 2 {
		t.Fatalf("ticks = %v", ticks)
	}
}

func TestEventsBeforeTickersWithinStep(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Register(TickerFunc(func(c uint64) {
		if c == 1 {
			order = append(order, "tick")
		}
	}))
	e.AfterEvent(1, call(func() { order = append(order, "event") }), 0, nil)
	e.Run(3)
	if len(order) != 2 || order[0] != "event" || order[1] != "tick" {
		t.Fatalf("order = %v, want [event tick]", order)
	}
}

func TestPending(t *testing.T) {
	e := NewEngine()
	nop := call(func() {})
	e.AfterEvent(1, nop, 0, nil)
	e.AfterEvent(2, nop, 0, nil)
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.Run(5)
	if e.Pending() != 0 {
		t.Fatalf("Pending after run = %d, want 0", e.Pending())
	}
}
