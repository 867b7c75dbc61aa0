package sim

import "repro/internal/digest"

// DigestFold folds the engine's own state — cycle, event sequence
// counter, and every pending event in the wheel, overflow heap, and
// overdue list — into the engine lane. It runs from a digest ticker,
// i.e. after the current cycle's bucket has been drained and emptied,
// so the scan observes exactly the events still scheduled for future
// cycles. Event handlers are not folded (they are host addresses, not
// simulator state); ordering and timing are pinned by (at, seq, kind).
func (e *Engine) DigestFold(r *digest.Recorder) {
	r.Fold(e.cycle)
	r.Fold(e.seq)
	r.FoldInt(e.inWheel)
	for i := uint64(0); i < wheelSize; i++ {
		bucket := e.buckets[(e.cycle+i)&wheelMask]
		for j := range bucket {
			foldEvent(r, &bucket[j])
		}
	}
	// The overflow heap's slice layout is a deterministic function of
	// the push/pop history, so index order is stable across runs.
	for i := range e.overflow {
		foldEvent(r, &e.overflow[i])
	}
	for i := range e.overdue {
		foldEvent(r, &e.overdue[i])
	}
}

func foldEvent(r *digest.Recorder, ev *event) {
	r.Fold(ev.at)
	r.Fold(ev.seq)
	r.Fold(uint64(ev.kind))
	// Events once could carry a closure, folded here as a presence bit.
	// None does now, but the bit stays so every recorded digest stays
	// valid.
	r.FoldBool(false)
}
