package cache

import (
	"testing"
	"testing/quick"
)

// newSet builds a lone set of the given associativity.
func newSet(ways int) *Set { return NewBank(1, ways).Set(0) }

func TestDefaultGeometry(t *testing.T) {
	g := DefaultGeometry()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.TotalBytes() != 16<<20 {
		t.Errorf("TotalBytes = %d, want 16MB", g.TotalBytes())
	}
	if g.TotalBanks() != 256 {
		t.Errorf("TotalBanks = %d, want 256", g.TotalBanks())
	}
	if g.BankBytes() != 64<<10 {
		t.Errorf("BankBytes = %d, want 64KB", g.BankBytes())
	}
}

func TestGeometryValidateRejects(t *testing.T) {
	bad := []Geometry{
		{Clusters: 3, BanksPerCluster: 16, SetsPerBank: 64, Ways: 16, LineBytes: 64},
		{Clusters: 16, BanksPerCluster: 0, SetsPerBank: 64, Ways: 16, LineBytes: 64},
		{Clusters: 16, BanksPerCluster: 16, SetsPerBank: -2, Ways: 16, LineBytes: 64},
		{Clusters: 16, BanksPerCluster: 16, SetsPerBank: 64, Ways: 12, LineBytes: 64},
		{Clusters: 16, BanksPerCluster: 16, SetsPerBank: 64, Ways: 16, LineBytes: 48},
		{Clusters: 16, BanksPerCluster: 16, SetsPerBank: 64, Ways: 128, LineBytes: 64},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, g)
		}
	}
	widest := DefaultGeometry()
	widest.Ways = MaxWays
	if err := widest.Validate(); err != nil {
		t.Errorf("Validate rejected %d ways: %v", MaxWays, err)
	}
}

func TestPlaceOfRoundTrip(t *testing.T) {
	g := DefaultGeometry()
	f := func(a uint32) bool {
		addr := LineAddr(a)
		p := g.PlaceOf(addr)
		if p.Bank < 0 || p.Bank >= g.BanksPerCluster {
			return false
		}
		if p.Set < 0 || p.Set >= g.SetsPerBank {
			return false
		}
		if p.HomeCluster < 0 || p.HomeCluster >= g.Clusters {
			return false
		}
		return g.LineOf(p) == addr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPlaceOfBitSlicing(t *testing.T) {
	g := DefaultGeometry()
	// bank = low 4 bits, set = next 6, tag = rest, home = tag low 4.
	a := LineAddr(0b_1011_0101_110101_0011)
	p := g.PlaceOf(a)
	if p.Bank != 0b0011 {
		t.Errorf("Bank = %d", p.Bank)
	}
	if p.Set != 0b110101 {
		t.Errorf("Set = %d", p.Set)
	}
	if p.Tag != 0b1011_0101 {
		t.Errorf("Tag = %d", p.Tag)
	}
	if p.HomeCluster != 0b0101 {
		t.Errorf("HomeCluster = %d", p.HomeCluster)
	}
}

func TestConsecutiveLinesSpreadOverBanks(t *testing.T) {
	g := DefaultGeometry()
	// Consecutive line addresses must hit consecutive banks (index low bits).
	for i := 0; i < g.BanksPerCluster; i++ {
		if p := g.PlaceOf(LineAddr(i)); p.Bank != i {
			t.Fatalf("line %d -> bank %d", i, p.Bank)
		}
	}
}

func TestSetLookupInsertInvalidate(t *testing.T) {
	s := newSet(4)
	if _, ok := s.Lookup(42); ok {
		t.Fatal("lookup hit in empty set")
	}
	way, _, evicted := s.Insert(42)
	if evicted {
		t.Fatal("eviction from empty set")
	}
	if got, ok := s.Lookup(42); !ok || got != way {
		t.Fatalf("lookup after insert: way=%d ok=%v", got, ok)
	}
	if !s.Invalidate(42) {
		t.Fatal("invalidate failed")
	}
	if _, ok := s.Lookup(42); ok {
		t.Fatal("lookup hit after invalidate")
	}
	if s.Invalidate(42) {
		t.Fatal("double invalidate reported success")
	}
}

func TestSetEvictsWhenFull(t *testing.T) {
	s := newSet(4)
	for tag := uint64(0); tag < 4; tag++ {
		if _, _, ev := s.Insert(tag); ev {
			t.Fatalf("unexpected eviction inserting %d", tag)
		}
	}
	if s.ValidCount() != 4 {
		t.Fatalf("ValidCount = %d", s.ValidCount())
	}
	way, evictedEntry, ev := s.Insert(99)
	if !ev {
		t.Fatal("full set must evict")
	}
	if evictedEntry.Tag >= 4 {
		t.Fatalf("evicted %+v, want one of the resident lines", evictedEntry)
	}
	if _, ok := s.Lookup(evictedEntry.Tag); ok {
		t.Fatalf("evicted tag %d still present", evictedEntry.Tag)
	}
	if !s.Valid(way) {
		t.Fatalf("way %d holding the new tag is not valid", way)
	}
	if _, ok := s.Lookup(99); !ok {
		t.Fatal("new tag not present")
	}
	if s.ValidCount() != 4 {
		t.Fatalf("ValidCount after eviction = %d", s.ValidCount())
	}
}

func TestPLRUVictimIsNotMRU(t *testing.T) {
	for _, ways := range []int{2, 4, 8, 16} {
		p := newPLRU(ways)
		for w := 0; w < ways; w++ {
			p.touch(w)
			if v := p.victim(); v == w {
				t.Errorf("ways=%d: victim %d equals just-touched way", ways, v)
			}
		}
	}
}

func TestPLRUFullCycle(t *testing.T) {
	// Touching ways 0..n-1 in order leaves way 0 as the victim.
	p := newPLRU(8)
	for w := 0; w < 8; w++ {
		p.touch(w)
	}
	if v := p.victim(); v != 0 {
		t.Errorf("victim = %d, want 0 after in-order touches", v)
	}
}

func TestPLRUSingleWay(t *testing.T) {
	p := newPLRU(1)
	p.touch(0)
	if p.victim() != 0 {
		t.Error("single-way victim must be 0")
	}
}

func TestPLRUPanicsOnNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("newPLRU(3) must panic")
		}
	}()
	newPLRU(3)
}

func TestPLRUApproximatesLRUUnderScan(t *testing.T) {
	// Property: under a repeating scan of ways+1 distinct tags through a
	// set, every insert evicts (thrash), exercising victim rotation without
	// ever returning an out-of-range way.
	s := newSet(4)
	for i := 0; i < 100; i++ {
		tag := uint64(i % 5)
		if _, ok := s.Lookup(tag); !ok {
			way, _, _ := s.Insert(tag)
			if way < 0 || way >= 4 {
				t.Fatalf("way %d out of range", way)
			}
		} else {
			if w, _ := s.Lookup(tag); true {
				s.Touch(w)
			}
		}
	}
}

func TestBank(t *testing.T) {
	b := NewBank(8, 4)
	if b.NumSets() != 8 {
		t.Fatalf("NumSets = %d", b.NumSets())
	}
	b.Set(3).Insert(7)
	if n := b.Set(3).ValidCount(); n != 1 {
		t.Fatalf("ValidCount = %d", n)
	}
	if _, ok := b.Set(3).Lookup(7); !ok {
		t.Fatal("inserted line not found")
	}
	if _, ok := b.Set(2).Lookup(7); ok {
		t.Fatal("line leaked into wrong set")
	}
}

func TestEntryDefaults(t *testing.T) {
	s := newSet(2)
	way, _, _ := s.Insert(5)
	e := s.Way(way)
	if e.Dirty || e.Migrating || e.Sharers != 0 || e.Hits != 0 {
		t.Errorf("fresh entry has nonzero policy state: %+v", e)
	}
	if e.LastCPU != -1 {
		t.Errorf("LastCPU = %d, want -1", e.LastCPU)
	}
}

func TestDistinctAddressesDistinctPlaces(t *testing.T) {
	g := Geometry{Clusters: 4, BanksPerCluster: 4, SetsPerBank: 8, Ways: 2, LineBytes: 64}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	seen := map[Place]LineAddr{}
	for a := LineAddr(0); a < 1024; a++ {
		p := g.PlaceOf(a)
		if prev, dup := seen[p]; dup {
			t.Fatalf("addresses %d and %d share place %+v", prev, a, p)
		}
		seen[p] = a
	}
}

func TestInsertReplicaPrefersInvalidThenReplica(t *testing.T) {
	s := newSet(4)
	// Empty set: uses an invalid way.
	way, _, had, ok := s.InsertReplica(1)
	if !ok || had {
		t.Fatalf("ok=%v had=%v", ok, had)
	}
	if !s.Way(way).Replica {
		t.Fatal("entry not marked replica")
	}
	// Fill the rest with primaries.
	for tag := uint64(10); s.ValidCount() < 4; tag++ {
		s.Insert(tag)
	}
	// A second replica must displace the first replica, not a primary.
	way2, displaced, had2, ok2 := s.InsertReplica(2)
	if !ok2 || !had2 {
		t.Fatalf("ok=%v had=%v", ok2, had2)
	}
	if !displaced.Replica || displaced.Tag != 1 {
		t.Fatalf("displaced %+v, want the old replica", displaced)
	}
	if !s.Way(way2).Replica || s.Way(way2).Tag != 2 {
		t.Fatal("new replica not installed")
	}
}

func TestInsertReplicaRefusesFullPrimarySet(t *testing.T) {
	s := newSet(2)
	s.Insert(10)
	s.Insert(11)
	if _, _, _, ok := s.InsertReplica(1); ok {
		t.Fatal("replica displaced a primary")
	}
	// Primaries untouched.
	if _, ok := s.Lookup(10); !ok {
		t.Fatal("primary 10 lost")
	}
	if _, ok := s.Lookup(11); !ok {
		t.Fatal("primary 11 lost")
	}
}
