package core

import (
	"math/bits"

	"repro/internal/cache"
)

// l1 is one core's private L1 data cache: 64 KB, 2-way, 64-byte lines,
// write-through (Table 4). Entries track an MSI-style state: present lines
// are Shared or Modified (the dirty bit doubles as the M bit).
// Write-through keeps L2 data current, so L1 evictions are always silent.
// The set count is a power of two (config.Validate), so placement is a
// mask and a shift.
type l1 struct {
	tags  cache.TagArray
	mask  uint64 // sets-1: the set index bits
	shift uint   // log2(sets): the tag is the address above them

	Hits, Misses uint64
}

func newL1(sets, ways int) l1 {
	return l1{
		tags:  cache.NewTagArray(sets, ways),
		mask:  uint64(sets - 1),
		shift: uint(bits.TrailingZeros(uint(sets))),
	}
}

func (c *l1) place(a cache.LineAddr) (set int, tag uint64) {
	return int(uint64(a) & c.mask), uint64(a) >> c.shift
}

// lookup probes the L1. modified reports M state on a hit. Replacement
// state is updated on hits.
func (c *l1) lookup(a cache.LineAddr) (hit, modified bool) {
	hit, modified = c.tags.Access(c.place(a))
	if hit {
		c.Hits++
	} else {
		c.Misses++
	}
	return hit, modified
}

// install fills a line in the given state, silently dropping the victim
// (write-through L1s hold no dirty-only data). A line already present
// keeps M if it had it.
func (c *l1) install(a cache.LineAddr, modified bool) {
	set, tag := c.place(a)
	c.tags.Install(set, tag, modified)
}

// invalidate drops a line if present, reporting whether it was there.
func (c *l1) invalidate(a cache.LineAddr) bool {
	return c.tags.Invalidate(c.place(a))
}
