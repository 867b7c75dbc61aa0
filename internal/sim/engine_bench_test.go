package sim

import (
	"container/heap"
	"testing"
)

// legacyQueue reproduces the engine's previous event queue — a container/heap
// min-heap of pointer events ordered by (at, seq) — so BenchmarkEventQueue
// can compare the timing wheel against what it replaced on the same workload.
type legacyEvent struct {
	at  uint64
	seq uint64
	fn  func()
}

type legacyHeap []*legacyEvent

func (h legacyHeap) Len() int { return len(h) }
func (h legacyHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h legacyHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *legacyHeap) Push(x any)   { *h = append(*h, x.(*legacyEvent)) }
func (h *legacyHeap) Pop() any {
	old := *h
	n := len(old) - 1
	ev := old[n]
	old[n] = nil
	*h = old[:n]
	return ev
}

type legacyQueue struct {
	cycle uint64
	seq   uint64
	h     legacyHeap
}

func (q *legacyQueue) after(delay uint64, fn func()) {
	q.seq++
	heap.Push(&q.h, &legacyEvent{at: q.cycle + delay, seq: q.seq, fn: fn})
}

func (q *legacyQueue) step() {
	for len(q.h) > 0 && q.h[0].at <= q.cycle {
		heap.Pop(&q.h).(*legacyEvent).fn()
	}
	q.cycle++
}

// benchDelays mirrors the simulated machine's latency mix (Table 4): mostly
// short tag/bank/L1 completions, occasionally a DRAM access that lands in the
// wheel's overflow heap.
var benchDelays = [8]uint64{4, 5, 3, 1, 5, 4, 3, 260}

func BenchmarkEventQueue(b *testing.B) {
	// Each op: schedule 4 events with the Table 4 delay mix (chosen by a
	// deterministic LCG), then advance one cycle and fire what is due.
	b.Run("heap", func(b *testing.B) {
		q := &legacyQueue{}
		fn := func() {}
		rng := uint64(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := 0; k < 4; k++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				q.after(benchDelays[rng>>61], fn)
			}
			q.step()
		}
	})
	b.Run("wheel", func(b *testing.B) {
		e := NewEngine()
		fn := func() {}
		rng := uint64(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := 0; k < 4; k++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				e.After(benchDelays[rng>>61], fn)
			}
			e.Step()
		}
	})
	b.Run("wheel-typed", func(b *testing.B) {
		e := NewEngine()
		h := &nopHandler{}
		rng := uint64(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := 0; k < 4; k++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				e.AfterEvent(benchDelays[rng>>61], h, 0, h)
			}
			e.Step()
		}
	})
}
