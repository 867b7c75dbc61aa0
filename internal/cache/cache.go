// Package cache provides the storage structures of the memory hierarchy:
// set-associative banks with tree pseudo-LRU replacement, the address
// mapping of the clustered NUCA L2 (Section 4.2.2 of the paper), and the
// line metadata the management policies operate on (migration counters,
// lazy-migration marks, and the co-located L1 directory state).
package cache

import (
	"fmt"
	"math/bits"
)

// LineAddr is a cache-line address: the byte address divided by the line
// size. All of the memory system works in line addresses.
type LineAddr uint64

// Geometry describes the clustered L2 organization. The default (Table 4)
// is 16 clusters x 16 banks x 64 sets x 16 ways x 64-byte lines = 16 MB.
type Geometry struct {
	Clusters        int // number of clusters (each with its own tag array)
	BanksPerCluster int // banks per cluster
	SetsPerBank     int // sets in one bank
	Ways            int // associativity
	LineBytes       int // line size in bytes
}

// DefaultGeometry returns the paper's Table 4 configuration:
// 16 MB = 256 x 64 KB banks, 16-way, 64 B lines, 16 clusters of 16 banks.
func DefaultGeometry() Geometry {
	return Geometry{
		Clusters:        16,
		BanksPerCluster: 16,
		SetsPerBank:     64,
		Ways:            16,
		LineBytes:       64,
	}
}

// Validate checks that every field is a positive power of two (the address
// mapping uses bit slicing) and that Ways is at most MaxWays.
func (g Geometry) Validate() error {
	if g.Ways > MaxWays {
		return fmt.Errorf("cache: Ways = %d exceeds %d (a set records its valid ways in one 64-bit mask)", g.Ways, MaxWays)
	}
	check := func(name string, v int) error {
		if v < 1 || v&(v-1) != 0 {
			return fmt.Errorf("cache: %s = %d must be a positive power of two", name, v)
		}
		return nil
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"Clusters", g.Clusters},
		{"BanksPerCluster", g.BanksPerCluster},
		{"SetsPerBank", g.SetsPerBank},
		{"Ways", g.Ways},
		{"LineBytes", g.LineBytes},
	} {
		if err := check(f.name, f.v); err != nil {
			return err
		}
	}
	return nil
}

// TotalBytes returns the aggregate L2 capacity.
func (g Geometry) TotalBytes() int {
	return g.Clusters * g.BanksPerCluster * g.SetsPerBank * g.Ways * g.LineBytes
}

// TotalBanks returns the number of banks in the whole L2.
func (g Geometry) TotalBanks() int { return g.Clusters * g.BanksPerCluster }

// BankBytes returns the capacity of one bank.
func (g Geometry) BankBytes() int { return g.SetsPerBank * g.Ways * g.LineBytes }

// log2 returns the exponent of a power of two (Validate guarantees one).
func log2(v int) uint { return uint(bits.Len(uint(v)) - 1) }

// Place decomposes a line address per the paper's placement policy:
// the low-order bits of the cache index pick the bank within the cluster,
// the remaining index bits pick the set within the bank, and the low-order
// bits of the cache tag pick the *initial* (home) cluster. Migration later
// moves a line between clusters, but bank-in-cluster and set are fixed
// functions of the address, so a line occupies the same slot shape in any
// cluster it visits.
type Place struct {
	HomeCluster int    // initial cluster (low tag bits)
	Bank        int    // bank within any cluster
	Set         int    // set within that bank
	Tag         uint64 // remaining address bits, stored in the tag array
}

// PlaceOf maps a line address to its placement.
func (g Geometry) PlaceOf(a LineAddr) Place {
	bankBits := log2(g.BanksPerCluster)
	setBits := log2(g.SetsPerBank)
	clusterMask := uint64(g.Clusters - 1)
	idx := uint64(a) & ((1 << (bankBits + setBits)) - 1)
	tag := uint64(a) >> (bankBits + setBits)
	return Place{
		HomeCluster: int(tag & clusterMask),
		Bank:        int(idx & uint64(g.BanksPerCluster-1)),
		Set:         int(idx >> bankBits),
		Tag:         tag,
	}
}

// LineOf reconstructs a line address from a placement (inverse of PlaceOf).
func (g Geometry) LineOf(p Place) LineAddr {
	bankBits := log2(g.BanksPerCluster)
	setBits := log2(g.SetsPerBank)
	idx := uint64(p.Set)<<bankBits | uint64(p.Bank)
	return LineAddr(p.Tag<<(bankBits+setBits) | idx)
}

// Entry is one cache line's metadata. Directory state for the L1 coherence
// protocol (Sharers) is co-located with the tag entry, and the migration
// policy's saturating access counter lives here too. Whether the way holds
// a line at all is the owning set's record, not the entry's (Set.Valid).
type Entry struct {
	Tag   uint64
	Dirty bool
	// Migrating marks a line being lazily migrated: it remains hittable at
	// its old location until the new location acknowledges (Section 4.2.3).
	Migrating bool
	// Replica marks a read-only copy created by the victim-replication
	// extension; the authoritative copy lives in another cluster.
	Replica bool
	// Sharers is the bitmask of CPUs holding the line in their L1.
	Sharers uint16
	// Hits is the migration policy's saturating access counter.
	Hits uint8
	// LastCPU is the CPU that last hit this line (-1 if none): consecutive
	// hits by the same remote CPU drive migration toward it.
	LastCPU int8
}

// MaxWays is the largest supported associativity: a set records its valid
// ways in one 64-bit mask.
const MaxWays = 64

// Set is one associative set with tree pseudo-LRU replacement. Bit w of
// valid is set when way w holds a line; an invalid way's entry is zero.
type Set struct {
	ways  []Entry
	valid uint64
	plru  plruTree
}

// Ways returns the associativity.
func (s *Set) Ways() int { return len(s.ways) }

// Way returns the entry in the given way for inspection or mutation.
func (s *Set) Way(i int) *Entry { return &s.ways[i] }

// Valid reports whether the given way holds a line.
func (s *Set) Valid(way int) bool { return s.valid&(1<<uint(way)) != 0 }

// free returns the lowest invalid way, or ok=false when the set is full.
func (s *Set) free() (way int, ok bool) {
	way = bits.TrailingZeros64(^s.valid)
	return way, way < len(s.ways)
}

// fill installs a fresh entry for tag in the given way, marking it valid
// and most-recently-used.
func (s *Set) fill(way int, tag uint64, replica bool) {
	s.ways[way] = Entry{Tag: tag, Replica: replica, LastCPU: -1}
	s.valid |= 1 << uint(way)
	s.plru.touch(way)
}

// Lookup finds a valid entry with the given tag, returning its way (the
// lowest, should two ways hold the tag).
func (s *Set) Lookup(tag uint64) (way int, ok bool) {
	for m := s.valid; m != 0; m &= m - 1 {
		if w := bits.TrailingZeros64(m); s.ways[w].Tag == tag {
			return w, true
		}
	}
	return 0, false
}

// Touch marks the way most-recently-used.
func (s *Set) Touch(way int) { s.plru.touch(way) }

// Victim returns the way to evict: an invalid way if one exists, otherwise
// the pseudo-LRU choice.
func (s *Set) Victim() int {
	if way, ok := s.free(); ok {
		return way
	}
	return s.plru.victim()
}

// Insert places a tag into the set, evicting the victim way if it was
// valid. It returns the way used and the displaced entry (ok reports
// whether a valid entry was evicted). The new entry starts clean with no
// sharers and is marked most-recently-used.
func (s *Set) Insert(tag uint64) (way int, evicted Entry, ok bool) {
	way = s.Victim()
	evicted, ok = s.ways[way], s.Valid(way)
	s.fill(way, tag, false)
	return way, evicted, ok
}

// InsertFree places a tag into an invalid way without evicting anything,
// reporting failure when the set is full. Cache warm-up uses it to build a
// steady state without displacing already-placed lines.
func (s *Set) InsertFree(tag uint64) (way int, ok bool) {
	if way, ok = s.free(); !ok {
		return 0, false
	}
	s.fill(way, tag, false)
	return way, true
}

// InsertReplica places a read-only replica into the set, displacing only an
// invalid way or another replica — never an authoritative line (the
// victim-replication capacity rule). It reports failure when every way
// holds a non-replica line, and returns any displaced replica so its
// bookkeeping can be cleaned up.
func (s *Set) InsertReplica(tag uint64) (way int, displaced Entry, hadDisplaced, ok bool) {
	way, ok = s.free()
	if !ok {
		for w := range s.ways {
			if s.ways[w].Replica {
				way, displaced, hadDisplaced, ok = w, s.ways[w], true, true
				break
			}
		}
		if !ok {
			return 0, Entry{}, false, false
		}
	}
	s.fill(way, tag, true)
	return way, displaced, hadDisplaced, true
}

// Invalidate clears the entry holding tag, reporting whether it was found.
func (s *Set) Invalidate(tag uint64) bool {
	way, ok := s.Lookup(tag)
	if ok {
		s.ways[way] = Entry{}
		s.valid &^= 1 << uint(way)
	}
	return ok
}

// ValidCount returns the number of valid entries.
func (s *Set) ValidCount() int { return bits.OnesCount64(s.valid) }

// Bank is one L2 cache bank: an array of sets. Access timing (the 5-cycle
// bank access of Table 4) is charged by the L2 controller, not here.
type Bank struct {
	sets []Set
	// Reads and Writes count accesses for the dynamic-power model.
	Reads  uint64
	Writes uint64
}

// NewBank builds a bank with the given set count and associativity (a
// power of two up to MaxWays). Every set's entries are capped windows of
// one slab, so a bank costs three allocations whatever its size.
func NewBank(sets, ways int) *Bank {
	plru := newPLRU(ways)
	slab := make([]Entry, sets*ways)
	b := &Bank{sets: make([]Set, sets)}
	for i := range b.sets {
		b.sets[i] = Set{ways: slab[i*ways : (i+1)*ways : (i+1)*ways], plru: plru}
	}
	return b
}

// Set returns set i.
func (b *Bank) Set(i int) *Set { return &b.sets[i] }

// NumSets returns the number of sets.
func (b *Bank) NumSets() int { return len(b.sets) }
