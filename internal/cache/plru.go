package cache

import "math/bits"

// plruTree is a binary-tree pseudo-LRU replacement policy for a power-of-two
// number of ways up to MaxWays, the policy the paper's L2 uses (Section
// 4.2.2). Each internal node holds one bit pointing toward the less recently
// used half (set: the right half); touching a way flips the bits along its
// path to point away from it. The ways-1 nodes are in heap order, root
// first, and node j is bit j of one word.
type plruTree struct {
	bits   uint64
	levels uint8 // tree depth, log2(ways)
}

func newPLRU(ways int) plruTree {
	if ways < 1 || ways > MaxWays || ways&(ways-1) != 0 {
		panic("cache: pLRU ways must be a power of two from 1 to 64")
	}
	return plruTree{levels: uint8(bits.Len(uint(ways)) - 1)}
}

// plruPath[1<<levels+way] is the path touch writes for way in a tree of
// the given depth: the nodes on it (mask) and their new values (bits). At
// level l the path's node is 2^l-1 plus the way's top l bits, and its new
// value points away from the way: to the right half when the way's next
// bit is 0. The table is built once and only read.
var plruPath = func() (t [2 * MaxWays]struct{ mask, bits uint64 }) {
	for d := uint(0); 1<<d <= MaxWays; d++ {
		for w := uint(0); w < 1<<d; w++ {
			p := &t[1<<d+w]
			for l := uint(0); l < d; l++ {
				node := uint64(1) << (1<<l - 1 + w>>(d-l))
				p.mask |= node
				if w>>(d-1-l)&1 == 0 {
					p.bits |= node
				}
			}
		}
	}
	return t
}()

// touch marks a way most-recently-used: one masked write points every node
// on its path away from it.
func (t *plruTree) touch(way int) {
	p := &plruPath[1<<t.levels+way]
	t.bits = t.bits&^p.mask | p.bits
}

// victim returns the pseudo-least-recently-used way, following each node's
// bit from the root.
func (t *plruTree) victim() int {
	node, way := uint(0), uint(0)
	for l := uint8(0); l < t.levels; l++ {
		right := uint(t.bits>>node) & 1
		node = 2*node + 1 + right
		way = way<<1 | right
	}
	return int(way)
}
