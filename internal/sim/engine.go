// Package sim provides the cycle-stepped simulation engine shared by every
// timed component: a global clock, a Ticker registry for components that do
// work every cycle (routers, buses), and an event queue for fixed-latency
// completions (tag lookups, bank accesses, memory fetches).
//
// The event queue is a hierarchical timing wheel specialized for the short
// fixed latencies that dominate the workload: events within the 256-cycle
// horizon land in an O(1) ring of per-cycle buckets, the rest in a small
// overflow heap that drains into the ring as the clock approaches. Events
// are plain structs stored by value in the bucket slices, so steady-state
// scheduling performs no per-event heap allocation. Same-cycle ordering is
// schedule order: per-bucket FIFO replaces the binary heap's (cycle, seq)
// tie-break with identical semantics.
package sim

import (
	"time"

	"repro/internal/prof"
)

// Ticker is a component that performs work on every clock edge.
type Ticker interface {
	// Tick advances the component by one cycle. The current cycle number is
	// passed for components that stamp or age state.
	Tick(cycle uint64)
}

// TickerFunc adapts a plain function to the Ticker interface.
type TickerFunc func(cycle uint64)

// Tick calls the function.
func (f TickerFunc) Tick(cycle uint64) { f(cycle) }

// IdleTicker is optionally implemented by tickers whose Tick is a no-op
// while they are idle. When every registered ticker implements it and all
// report idle, Run fast-forwards the clock over event-free cycles instead of
// stepping through them. Idle must only return true when Tick would perform
// no work; a ticker may still record the clock in its idle Tick (the fabric
// does, to timestamp injections), because the engine always executes the
// final cycle of a skipped stretch normally — every cycle in which an event
// fires is immediately preceded by a real ticker round, exactly as in
// unskipped execution.
type IdleTicker interface {
	Ticker
	Idle() bool
}

// Handler receives typed events scheduled with AfterEvent. The kind and
// data are opaque to the engine; the scheduling component dispatches on
// them, which avoids allocating a capturing closure per scheduled event on
// hot paths.
type Handler interface {
	HandleEvent(kind uint8, data any)
}

// wheelBits sizes the near wheel: 2^wheelBits per-cycle buckets. 256 covers
// every fixed latency in the simulated machine except the DRAM access.
const (
	wheelBits = 8
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
)

// event is a scheduled callback: either a legacy closure (fn != nil) or a
// typed (handler, kind, data) triple dispatched without allocation.
type event struct {
	at   uint64
	seq  uint64 // global schedule order, for the overflow heap's tie-break
	h    Handler
	data any
	fn   func()
	kind uint8
}

func (e *Engine) fire(ev *event) {
	if ev.fn != nil {
		ev.fn()
		return
	}
	ev.h.HandleEvent(ev.kind, ev.data)
}

// Engine owns the global clock. Each Step runs, in order: all events due at
// the current cycle, then every registered ticker, then advances the clock.
type Engine struct {
	cycle uint64
	seq   uint64

	// buckets is the near wheel: bucket[c&wheelMask] holds the events for
	// cycle c, c in [cycle, cycle+wheelSize). Within a bucket events fire
	// in append (schedule) order.
	buckets [wheelSize][]event
	inWheel int // events currently stored in the near wheel

	// overflow holds events beyond the wheel horizon, ordered by (at, seq);
	// Step migrates them into the wheel as their cycle approaches.
	overflow []event

	// overdue holds events scheduled for a cycle whose bucket has already
	// been drained (an After(0) from a ticker, or At on a past cycle).
	// They fire at the start of the next Step, before that cycle's bucket.
	overdue []event

	// drained is true between this cycle's bucket drain and the clock
	// advance; a same-cycle event scheduled in that window must go to
	// overdue rather than the already-visited bucket.
	drained bool

	tickers []Ticker
	// idlers mirrors tickers when every registered ticker implements
	// IdleTicker; skippable records that property.
	idlers    []IdleTicker
	skippable bool
	noSkip    bool

	// prof, when non-nil, receives host-side wall-clock attribution for
	// every step: each fired event and each ticker's Tick is timed with
	// monotonic clock deltas and folded into the recorder under the phase
	// the classifiers assign (see SetProfiler). The nil path is the
	// untouched hot path — one pointer check per Step and per Run.
	prof         *prof.Recorder
	classifyEv   func(kind uint8, closure bool) prof.Phase
	classifyTick func(t Ticker) prof.Phase
	// tickerPhase caches classifyTick per registered ticker, in
	// registration order.
	tickerPhase []prof.Phase
}

// NewEngine returns an engine at cycle 0 with no components.
func NewEngine() *Engine {
	return &Engine{skippable: true}
}

// Now returns the current cycle.
func (e *Engine) Now() uint64 { return e.cycle }

// Register adds a ticker that will run every cycle, in registration order.
func (e *Engine) Register(t Ticker) {
	e.tickers = append(e.tickers, t)
	if it, ok := t.(IdleTicker); ok && e.skippable {
		e.idlers = append(e.idlers, it)
	} else {
		e.skippable = false
		e.idlers = nil
	}
	if e.classifyTick != nil {
		e.tickerPhase = append(e.tickerPhase, e.classifyTick(t))
	}
}

// SetProfiler attaches a host-side phase profiler: every fired event is
// classified by eventPhase (kind plus whether it is a legacy closure) and
// every ticker by tickerPhase. Tickers registered later are classified on
// registration. A nil recorder detaches, restoring the zero-overhead
// step. Attribution never feeds back into simulation state, so a
// profiled run is bit-identical to an unprofiled one.
func (e *Engine) SetProfiler(r *prof.Recorder, eventPhase func(kind uint8, closure bool) prof.Phase, tickerPhase func(Ticker) prof.Phase) {
	e.prof = r
	e.tickerPhase = e.tickerPhase[:0]
	if r == nil {
		e.classifyEv, e.classifyTick = nil, nil
		return
	}
	e.classifyEv, e.classifyTick = eventPhase, tickerPhase
	for _, t := range e.tickers {
		e.tickerPhase = append(e.tickerPhase, tickerPhase(t))
	}
}

// SetIdleSkip enables (default) or disables idle-cycle fast-forwarding in
// Run. Skipping never changes observable behavior — it only engages when
// every ticker reports a no-op Tick — so disabling it is useful solely for
// equivalence testing and profiling.
func (e *Engine) SetIdleSkip(on bool) { e.noSkip = !on }

// schedule inserts an event at its cycle.
func (e *Engine) schedule(ev event) {
	switch {
	case ev.at == e.cycle && !e.drained:
		// Fires later this Step (scheduled from an event callback) or at
		// the start of the next one (scheduled between Steps); either way
		// the bucket for the current cycle has not been drained yet.
		e.buckets[ev.at&wheelMask] = append(e.buckets[ev.at&wheelMask], ev)
		e.inWheel++
	case ev.at <= e.cycle:
		// This cycle's drain already ran; fire first thing next Step.
		e.overdue = append(e.overdue, ev)
	case ev.at-e.cycle < wheelSize:
		e.buckets[ev.at&wheelMask] = append(e.buckets[ev.at&wheelMask], ev)
		e.inWheel++
	default:
		e.pushOverflow(ev)
	}
}

// After schedules fn to run delay cycles from now. A delay of 0 runs fn at
// the start of the next Step (events for the current cycle have already
// fired once Step begins executing tickers).
func (e *Engine) After(delay uint64, fn func()) {
	e.seq++
	e.schedule(event{at: e.cycle + delay, seq: e.seq, fn: fn})
}

// At schedules fn for an absolute cycle. Cycles in the past fire on the
// next Step.
func (e *Engine) At(cycle uint64, fn func()) {
	if cycle < e.cycle {
		cycle = e.cycle
	}
	e.seq++
	e.schedule(event{at: cycle, seq: e.seq, fn: fn})
}

// AfterEvent schedules a typed event delay cycles from now: h.HandleEvent
// (kind, data) runs with the same ordering guarantees as After. Unlike
// After it captures no closure, so scheduling allocates nothing once the
// wheel's bucket slices have grown to steady-state capacity; data should be
// a pointer (storing a pointer in an interface does not allocate).
func (e *Engine) AfterEvent(delay uint64, h Handler, kind uint8, data any) {
	e.seq++
	e.schedule(event{at: e.cycle + delay, seq: e.seq, h: h, kind: kind, data: data})
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return e.inWheel + len(e.overflow) + len(e.overdue) }

// migrate pulls overflow events whose cycle entered the wheel horizon into
// their buckets. The overflow heap pops in (at, seq) order, preserving
// schedule order among migrated events; the rare append behind an event
// scheduled directly into the bucket is repaired by a seq sort.
func (e *Engine) migrate() {
	for len(e.overflow) > 0 && e.overflow[0].at < e.cycle+wheelSize {
		ev := e.popOverflow()
		b := e.buckets[ev.at&wheelMask]
		if n := len(b); n > 0 && b[n-1].seq > ev.seq {
			// An event for this cycle was scheduled directly into the
			// bucket before this (older) one migrated: insert in seq order.
			i := n
			for i > 0 && b[i-1].seq > ev.seq {
				i--
			}
			b = append(b, event{})
			copy(b[i+1:], b[i:])
			b[i] = ev
		} else {
			b = append(b, ev)
		}
		e.buckets[ev.at&wheelMask] = b
		e.inWheel++
	}
}

// Step advances the simulation by one cycle: due events fire first (they may
// schedule more events, including for this same cycle), then tickers run.
func (e *Engine) Step() {
	if e.prof != nil {
		e.stepProfiled()
		return
	}
	e.migrate()
	if len(e.overdue) > 0 {
		// Events whose cycle was drained before they were scheduled; they
		// precede this cycle's bucket (their cycle stamp is older). Firing
		// them cannot grow overdue: the current bucket is undrained, so
		// same-cycle reschedules land there.
		for i := 0; i < len(e.overdue); i++ {
			e.fire(&e.overdue[i])
		}
		clear(e.overdue)
		e.overdue = e.overdue[:0]
	}
	slot := e.cycle & wheelMask
	for i := 0; i < len(e.buckets[slot]); i++ {
		ev := e.buckets[slot][i] // copy: firing may append and reallocate
		e.fire(&ev)
		e.inWheel--
	}
	clear(e.buckets[slot])
	e.buckets[slot] = e.buckets[slot][:0]
	e.drained = true
	for _, t := range e.tickers {
		t.Tick(e.cycle)
	}
	e.drained = false
	e.cycle++
}

// stepProfiled is Step with phase attribution — kept in lockstep with the
// unprofiled body above (same ordering, same drained-flag discipline), plus
// chained monotonic clock readings: each fired event's delta lands under
// its classified phase, each ticker is timed around its Tick, and
// everything unclaimed falls to the engine phase by subtraction at report
// time.
func (e *Engine) stepProfiled() {
	e.prof.StepDone()
	e.migrate()
	last := time.Now()
	if len(e.overdue) > 0 {
		for i := 0; i < len(e.overdue); i++ {
			e.fire(&e.overdue[i])
			last = e.recordEvent(&e.overdue[i], last)
		}
		clear(e.overdue)
		e.overdue = e.overdue[:0]
	}
	slot := e.cycle & wheelMask
	for i := 0; i < len(e.buckets[slot]); i++ {
		ev := e.buckets[slot][i] // copy: firing may append and reallocate
		e.fire(&ev)
		e.inWheel--
		last = e.recordEvent(&ev, last)
	}
	clear(e.buckets[slot])
	e.buckets[slot] = e.buckets[slot][:0]
	e.drained = true
	for ti, t := range e.tickers {
		t0 := time.Now()
		t.Tick(e.cycle)
		e.prof.Record(e.tickerPhase[ti], time.Since(t0).Nanoseconds())
	}
	e.drained = false
	e.cycle++
}

// recordEvent attributes the wall time since the previous reading to the
// just-fired event's phase and returns the new reading. Chaining readings
// costs one clock call per event instead of two.
func (e *Engine) recordEvent(ev *event, last time.Time) time.Time {
	now := time.Now()
	e.prof.Record(e.classifyEv(ev.kind, ev.fn != nil), now.Sub(last).Nanoseconds())
	return now
}

// idle reports whether every registered ticker is skip-safe and idle.
func (e *Engine) idle() bool {
	if !e.skippable || e.noSkip {
		return false
	}
	for _, t := range e.idlers {
		if !t.Idle() {
			return false
		}
	}
	return true
}

// nextEventAt returns the earliest scheduled event cycle, or false when no
// events are pending. Overdue events fire on the very next Step, so they
// report the current cycle.
func (e *Engine) nextEventAt() (uint64, bool) {
	if len(e.overdue) > 0 {
		return e.cycle, true
	}
	at := uint64(0)
	ok := false
	if e.inWheel > 0 {
		for i := uint64(0); i < wheelSize; i++ {
			c := e.cycle + i
			if len(e.buckets[c&wheelMask]) > 0 {
				at, ok = c, true
				break
			}
		}
	}
	if len(e.overflow) > 0 && (!ok || e.overflow[0].at < at) {
		at, ok = e.overflow[0].at, true
	}
	return at, ok
}

// Run advances the simulation by n cycles. When every registered ticker
// implements IdleTicker and all report idle, the clock fast-forwards over
// event-free cycles; events still fire at exactly the cycles they were
// scheduled for, so results are identical to stepping every cycle.
//
// With a profiler attached each Run is one throughput window in the
// recorder's rolling series (cycles advanced over wall time).
func (e *Engine) Run(n uint64) {
	if e.prof != nil {
		start, c0 := e.prof.RunStart(), e.cycle
		e.runLoop(n)
		e.prof.RunEnd(start, e.cycle-c0)
		return
	}
	e.runLoop(n)
}

func (e *Engine) runLoop(n uint64) {
	end := e.cycle + n
	for e.cycle < end {
		if e.cycle+1 < end && e.idle() {
			// Fast-forward to the cycle before the next event (or the
			// window's last cycle). The skipped Steps are provably no-ops:
			// no events are due and every ticker reports an idle Tick. The
			// stretch's final cycle steps normally, so tickers observe the
			// clock exactly as in unskipped execution before any event fires.
			target := end - 1
			if next, ok := e.nextEventAt(); ok && next <= target {
				target = next - 1
			}
			if target > e.cycle {
				e.cycle = target
			}
		}
		e.Step()
	}
}

// RunUntil advances the simulation until done reports true or the cycle
// limit is reached. It returns true if done became true before the limit.
// Like Run, a profiled RunUntil records one throughput window.
func (e *Engine) RunUntil(done func() bool, limit uint64) bool {
	if e.prof != nil {
		start, c0 := e.prof.RunStart(), e.cycle
		ok := e.runUntilLoop(done, limit)
		e.prof.RunEnd(start, e.cycle-c0)
		return ok
	}
	return e.runUntilLoop(done, limit)
}

func (e *Engine) runUntilLoop(done func() bool, limit uint64) bool {
	for e.cycle < limit {
		if done() {
			return true
		}
		e.Step()
	}
	return done()
}

// pushOverflow inserts an event into the overflow min-heap, ordered by
// (at, seq). The heap stores plain structs and is maintained by hand, so no
// interface{} boxing occurs.
func (e *Engine) pushOverflow(ev event) {
	e.overflow = append(e.overflow, ev)
	i := len(e.overflow) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !overflowLess(&e.overflow[i], &e.overflow[parent]) {
			break
		}
		e.overflow[i], e.overflow[parent] = e.overflow[parent], e.overflow[i]
		i = parent
	}
}

// popOverflow removes and returns the earliest overflow event.
func (e *Engine) popOverflow() event {
	h := e.overflow
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // release the payload pointers
	e.overflow = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		child := l
		if r < n && overflowLess(&h[r], &h[l]) {
			child = r
		}
		if !overflowLess(&h[child], &h[i]) {
			break
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
	return top
}

func overflowLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}
