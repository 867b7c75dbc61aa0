package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// refSet is the set as it was before valid masks: a validity flag per way
// found by scanning from way 0, and a pseudo-LRU tree of one bool per node.
// TestSetMatchesReference drives it beside Set as the oracle.
type refSet struct {
	ways  []Entry
	valid []bool
	plru  refPLRU
}

type refPLRU struct {
	ways int
	bits []bool // ways-1 internal nodes, heap order, root at index 0
}

func newRefSet(ways int) *refSet {
	return &refSet{
		ways:  make([]Entry, ways),
		valid: make([]bool, ways),
		plru:  refPLRU{ways: ways, bits: make([]bool, ways-1)},
	}
}

func (t *refPLRU) touch(way int) {
	node := 0
	lo, hi := 0, t.ways
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if way < mid {
			t.bits[node] = true
			node = 2*node + 1
			hi = mid
		} else {
			t.bits[node] = false
			node = 2*node + 2
			lo = mid
		}
	}
}

func (t *refPLRU) victim() int {
	node := 0
	lo, hi := 0, t.ways
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if t.bits[node] {
			node = 2*node + 2
			lo = mid
		} else {
			node = 2*node + 1
			hi = mid
		}
	}
	return lo
}

func (s *refSet) lookup(tag uint64) (int, bool) {
	for i := range s.ways {
		if s.valid[i] && s.ways[i].Tag == tag {
			return i, true
		}
	}
	return 0, false
}

func (s *refSet) victim() int {
	for i := range s.ways {
		if !s.valid[i] {
			return i
		}
	}
	return s.plru.victim()
}

func (s *refSet) put(way int, e Entry) {
	s.ways[way], s.valid[way] = e, true
	s.plru.touch(way)
}

func (s *refSet) insert(tag uint64) (int, Entry, bool) {
	way := s.victim()
	evicted, ok := s.ways[way], s.valid[way]
	s.put(way, Entry{Tag: tag, LastCPU: -1})
	return way, evicted, ok
}

func (s *refSet) insertFree(tag uint64) (int, bool) {
	for i := range s.ways {
		if !s.valid[i] {
			s.put(i, Entry{Tag: tag, LastCPU: -1})
			return i, true
		}
	}
	return 0, false
}

func (s *refSet) insertReplica(tag uint64) (int, Entry, bool, bool) {
	victim := -1
	for i := range s.ways {
		if !s.valid[i] {
			victim = i
			break
		}
		if s.ways[i].Replica && victim < 0 {
			victim = i
		}
	}
	if victim < 0 {
		return 0, Entry{}, false, false
	}
	displaced, had := s.ways[victim], s.valid[victim]
	s.put(victim, Entry{Tag: tag, Replica: true, LastCPU: -1})
	return victim, displaced, had, true
}

func (s *refSet) invalidate(tag uint64) bool {
	way, ok := s.lookup(tag)
	if ok {
		s.ways[way], s.valid[way] = Entry{}, false
	}
	return ok
}

// TestSetMatchesReference drives Set and refSet with the same seeded random
// operations and requires identical results and identical state (entries,
// validity, PLRU node bits) after every step, at every supported
// associativity. Tags come from a range twice the associativity, so sets
// fill, evict, miss and hold duplicate tags.
func TestSetMatchesReference(t *testing.T) {
	for ways := 1; ways <= MaxWays; ways *= 2 {
		for seed := int64(1); seed <= 3; seed++ {
			s, ref := newSet(ways), newRefSet(ways)
			rng := rand.New(rand.NewSource(seed))
			for step := 0; step < 4000; step++ {
				tag := uint64(rng.Intn(2 * ways))
				var got, want []any
				switch op := rng.Intn(7); op {
				case 0:
					w, e, ok := s.Insert(tag)
					rw, re, rok := ref.insert(tag)
					got, want = []any{"Insert", w, e, ok}, []any{"Insert", rw, re, rok}
				case 1:
					w, ok := s.InsertFree(tag)
					rw, rok := ref.insertFree(tag)
					got, want = []any{"InsertFree", w, ok}, []any{"InsertFree", rw, rok}
				case 2:
					w, e, had, ok := s.InsertReplica(tag)
					rw, re, rhad, rok := ref.insertReplica(tag)
					got, want = []any{"InsertReplica", w, e, had, ok}, []any{"InsertReplica", rw, re, rhad, rok}
				case 3:
					got, want = []any{"Invalidate", s.Invalidate(tag)}, []any{"Invalidate", ref.invalidate(tag)}
				case 4:
					w, ok := s.Lookup(tag)
					rw, rok := ref.lookup(tag)
					got, want = []any{"Lookup", w, ok}, []any{"Lookup", rw, rok}
				case 5:
					w := rng.Intn(ways)
					s.Touch(w)
					ref.plru.touch(w)
				case 6:
					got, want = []any{"Victim", s.Victim()}, []any{"Victim", ref.victim()}
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("ways=%d seed=%d step %d: %v(%d) = %v, reference %v", ways, seed, step, got[0], tag, got, want)
					}
				}
				if err := sameSetState(s, ref); err != nil {
					t.Fatalf("ways=%d seed=%d step %d: %s", ways, seed, step, err)
				}
			}
		}
	}
}

// sameSetState compares every way's entry and validity, the valid count
// and the PLRU node bits, describing the first difference.
func sameSetState(s *Set, ref *refSet) error {
	n := 0
	for w := range ref.ways {
		if s.Valid(w) != ref.valid[w] {
			return fmt.Errorf("way %d: valid %v, reference %v", w, s.Valid(w), ref.valid[w])
		}
		if *s.Way(w) != ref.ways[w] {
			return fmt.Errorf("way %d: entry %+v, reference %+v", w, *s.Way(w), ref.ways[w])
		}
		if ref.valid[w] {
			n++
		}
	}
	if s.ValidCount() != n {
		return fmt.Errorf("ValidCount %d, reference %d", s.ValidCount(), n)
	}
	for j, bit := range ref.plru.bits {
		if (s.plru.bits>>uint(j)&1 == 1) != bit {
			return fmt.Errorf("PLRU node %d: %v, reference %v", j, !bit, bit)
		}
	}
	if s.plru.bits>>uint(len(ref.plru.bits)) != 0 {
		return fmt.Errorf("PLRU word %#x has bits beyond the tree's %d nodes", s.plru.bits, len(ref.plru.bits))
	}
	return nil
}
