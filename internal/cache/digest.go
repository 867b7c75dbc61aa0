package cache

import "repro/internal/digest"

// DigestFold folds the bank's access counters and the full tag array —
// every way's tag, valid/coherence/migration bits, sharer vector, and the
// per-set PLRU word — into the recorder's current lane. Entries fold as
// two packed words each so a full L2 sweep stays cheap enough for
// per-cycle digesting during divergence refinement.
func (b *Bank) DigestFold(r *digest.Recorder) {
	r.Fold(b.Reads)
	r.Fold(b.Writes)
	for i := range b.sets {
		s := &b.sets[i]
		r.Fold(s.plru.bits)
		for w := range s.ways {
			e := &s.ways[w]
			flags := s.valid >> uint(w) & 1
			if e.Dirty {
				flags |= 2
			}
			if e.Migrating {
				flags |= 4
			}
			if e.Replica {
				flags |= 8
			}
			flags |= uint64(e.Sharers) << 8
			flags |= uint64(e.Hits) << 24
			flags |= uint64(uint8(e.LastCPU)) << 32
			r.Fold(e.Tag)
			r.Fold(flags)
		}
	}
}
