package sim

import (
	"testing"
)

// Timing-wheel-specific coverage: delays beyond the wheel horizon, overflow
// migration ordering, overdue events, and the zero-allocation guarantee
// the hot paths rely on.

func TestOverflowDelayBeyondWheel(t *testing.T) {
	e := NewEngine()
	var fired []uint64
	// MemoryCycles-style delay, far past the 256-cycle wheel horizon.
	record := call(func() { fired = append(fired, e.Now()) })
	e.AfterEvent(1000, record, 0, nil)
	e.AfterEvent(300, record, 0, nil)
	e.AfterEvent(wheelSize, record, 0, nil) // first overflow cycle
	e.AfterEvent(wheelSize-1, record, 0, nil)
	e.Run(1100)
	want := []uint64{wheelSize - 1, wheelSize, 300, 1000}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v", fired)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

func TestOverflowSameCycleKeepsScheduleOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.AfterEvent(500, call(func() { order = append(order, i) }), 0, nil)
	}
	e.Run(600)
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestOverflowMigrationBehindDirectInsert(t *testing.T) {
	// An event scheduled early for cycle 300 sits in the overflow heap. At
	// cycle 45 (= 300 - wheelSize + 1, before the Step that migrates it) a
	// second event is scheduled directly into bucket 300 with a larger seq.
	// Migration must insert the older event in front of it.
	e := NewEngine()
	var order []int
	e.AfterEvent(300, call(func() { order = append(order, 1) }), 0, nil)
	e.Run(300 - wheelSize + 1)
	e.AfterEvent(wheelSize-1, call(func() { order = append(order, 2) }), 0, nil) // also cycle 300
	e.Run(300)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v, want [1 2]", order)
	}
}

func TestWheelWrapsRepeatedly(t *testing.T) {
	// A self-rescheduling event crossing the wheel boundary many times.
	e := NewEngine()
	var fired []uint64
	var step call
	step = func() {
		fired = append(fired, e.Now())
		if len(fired) < 8 {
			e.AfterEvent(100, step, 0, nil)
		}
	}
	e.AfterEvent(100, step, 0, nil)
	e.Run(1000)
	if len(fired) != 8 {
		t.Fatalf("fired %d times: %v", len(fired), fired)
	}
	for i, c := range fired {
		if c != uint64(100*(i+1)) {
			t.Fatalf("fired = %v", fired)
		}
	}
}

func TestZeroDelayFromTickerFiresBeforeNextBucket(t *testing.T) {
	// An AfterEvent(0) issued during the ticker phase of cycle 5 carries
	// cycle stamp 5; it must fire at the start of Step 6 ahead of events
	// scheduled for cycle 6 (matching the old heap's (cycle, seq) order).
	e := NewEngine()
	var order []string
	e.AfterEvent(6, call(func() { order = append(order, "six") }), 0, nil)
	done := false
	e.Register(TickerFunc(func(c uint64) {
		if c == 5 && !done {
			done = true
			e.AfterEvent(0, call(func() { order = append(order, "late5") }), 0, nil)
		}
	}))
	e.Run(10)
	if len(order) != 2 || order[0] != "late5" || order[1] != "six" {
		t.Fatalf("order = %v, want [late5 six]", order)
	}
}

// clockBox models the fabric: even a quiet Tick records the clock, which
// events read the following cycle (packet injection timestamps).
type clockBox struct{ last uint64 }

func (b *clockBox) Tick(c uint64) { b.last = c }

func TestSkipTicksFinalCycleBeforeEvent(t *testing.T) {
	e := NewEngine()
	cb := &clockBox{last: ^uint64(0)}
	e.Register(cb)
	var seen uint64
	e.AfterEvent(100, call(func() { seen = cb.last }), 0, nil)
	e.Run(200)
	// The last tick before the cycle-100 event phase is Tick(99).
	if seen != 99 {
		t.Fatalf("event saw ticker clock %d, want 99", seen)
	}
	if cb.last != 199 {
		t.Fatalf("final ticker clock %d, want 199", cb.last)
	}
}

// nopHandler is a Handler for the allocation test and BenchmarkEventQueue.
type nopHandler struct{ n int }

func (h *nopHandler) HandleEvent(kind uint8, data any) { h.n++ }

func TestAfterEventStepZeroAllocs(t *testing.T) {
	e := NewEngine()
	h := &nopHandler{}
	// Warm the bucket slices across the whole wheel.
	for i := 0; i < 2*wheelSize; i++ {
		e.AfterEvent(1, h, 0, h)
		e.Step()
	}
	avg := testing.AllocsPerRun(200, func() {
		e.AfterEvent(1, h, 0, h)
		e.AfterEvent(5, h, 1, h)
		e.Step()
	})
	if avg != 0 {
		t.Errorf("AfterEvent+Step allocates %.1f objects/op, want 0", avg)
	}
}
