package cache

import (
	"math/bits"

	"repro/internal/digest"
)

// TagArray is a set-associative tag array with the same tree pseudo-LRU
// replacement as a Bank, for caches whose lines carry nothing but a tag, a
// valid bit and a dirty bit: the private L1s, which need none of Entry's
// directory, migration or replica state. The whole array is one slab of
// words, and set i's record is
//
//	[valid, dirty, plru, tag_0 … tag_{ways-1}]
//
// so a lookup reads one record and no headers. Bit w of valid and dirty
// belongs to way w, and an invalid way's tag is zero, as an invalid Entry
// is zero in a Bank.
type TagArray struct {
	recs   []uint64
	stride int   // words per set record: recTags + ways
	levels uint8 // PLRU tree depth, log2(ways)
}

// Word offsets within a set record.
const (
	recValid = iota
	recDirty
	recPLRU
	recTags
)

// NewTagArray builds an empty array of sets sets of the given
// associativity (a power of two up to MaxWays).
func NewTagArray(sets, ways int) TagArray {
	stride := recTags + ways
	return TagArray{
		recs:   make([]uint64, sets*stride),
		stride: stride,
		levels: newPLRU(ways).levels,
	}
}

// set returns set i's record.
func (t *TagArray) set(i int) []uint64 {
	return t.recs[i*t.stride : (i+1)*t.stride : (i+1)*t.stride]
}

// find returns the lowest valid way of record r holding tag, as
// Set.Lookup does.
func find(r []uint64, tag uint64) (way uint, ok bool) {
	for m := r[recValid]; m != 0; m &= m - 1 {
		if w := uint(bits.TrailingZeros64(m)); r[recTags+w] == tag {
			return w, true
		}
	}
	return 0, false
}

// touch marks way most-recently-used in record r.
func (t *TagArray) touch(r []uint64, way uint) {
	p := plruTree{bits: r[recPLRU], levels: t.levels}
	p.touch(int(way))
	r[recPLRU] = p.bits
}

// Access looks tag up in set i. On a hit it marks the way most-recently
// used and reports the way's dirty bit.
func (t *TagArray) Access(i int, tag uint64) (hit, dirty bool) {
	r := t.set(i)
	w, ok := find(r, tag)
	if !ok {
		return false, false
	}
	t.touch(r, w)
	return true, r[recDirty]>>w&1 != 0
}

// Install makes tag present in set i and most-recently used. A line
// already present keeps its dirty bit, or-ed with dirty; otherwise the
// line fills the lowest invalid way, or else the pseudo-LRU victim, whose
// line is dropped, and its dirty bit is dirty.
func (t *TagArray) Install(i int, tag uint64, dirty bool) {
	r := t.set(i)
	w, ok := find(r, tag)
	if !ok {
		w = uint(bits.TrailingZeros64(^r[recValid]))
		if w >= uint(len(r)-recTags) {
			p := plruTree{bits: r[recPLRU], levels: t.levels}
			w = uint(p.victim())
		}
		r[recValid] |= 1 << w
		r[recDirty] &^= 1 << w
		r[recTags+w] = tag
	}
	if dirty {
		r[recDirty] |= 1 << w
	}
	t.touch(r, w)
}

// Invalidate drops tag from set i, reporting whether it was present. The
// way's tag and dirty bit are cleared and replacement state is left alone,
// as Set.Invalidate does.
func (t *TagArray) Invalidate(i int, tag uint64) bool {
	r := t.set(i)
	w, ok := find(r, tag)
	if ok {
		r[recValid] &^= 1 << w
		r[recDirty] &^= 1 << w
		r[recTags+w] = 0
	}
	return ok
}

// DigestFold folds the array word for word as Bank.DigestFold folds a
// bank of the same geometry whose entries were filled by Set.Insert and
// changed only in their Dirty bit: the bank's Reads and Writes (zero),
// then per set the PLRU word and per way the tag and flag word. A valid
// way's flags are 1 | dirty<<1 | 0xff<<32, the last from the LastCPU of
// -1 that Set.fill stamps; an invalid way folds two zeros. An L1's digest
// lane therefore reads the same in either layout.
func (t *TagArray) DigestFold(r *digest.Recorder) {
	r.Fold(0)
	r.Fold(0)
	for i := 0; i < len(t.recs); i += t.stride {
		rec := t.recs[i : i+t.stride]
		r.Fold(rec[recPLRU])
		for w, tag := range rec[recTags:] {
			var flags uint64
			if rec[recValid]>>w&1 != 0 {
				flags = 1 | rec[recDirty]>>w&1<<1 | 0xff<<32
			}
			r.Fold(tag)
			r.Fold(flags)
		}
	}
}
