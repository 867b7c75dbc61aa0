package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/digest"
)

func TestL1HitMiss(t *testing.T) {
	c := newL1(512, 2)
	if hit, _ := c.lookup(100); hit {
		t.Fatal("hit in empty L1")
	}
	c.install(100, false)
	hit, mod := c.lookup(100)
	if !hit || mod {
		t.Fatalf("hit=%v mod=%v, want hit Shared", hit, mod)
	}
	c.install(200, true)
	hit, mod = c.lookup(200)
	if !hit || !mod {
		t.Fatalf("hit=%v mod=%v, want hit Modified", hit, mod)
	}
}

func TestL1Counters(t *testing.T) {
	c := newL1(512, 2)
	c.lookup(1) // miss
	c.install(1, false)
	c.lookup(1) // hit
	c.lookup(2) // miss
	if c.Hits != 1 || c.Misses != 2 {
		t.Errorf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestL1Invalidate(t *testing.T) {
	c := newL1(512, 2)
	c.install(42, true)
	if !c.invalidate(42) {
		t.Fatal("invalidate missed present line")
	}
	if hit, _ := c.lookup(42); hit {
		t.Fatal("line present after invalidate")
	}
	if c.invalidate(42) {
		t.Fatal("invalidate of absent line reported success")
	}
}

func TestL1ReinstallMergesState(t *testing.T) {
	c := newL1(512, 2)
	c.install(5, true)
	c.install(5, false) // re-install Shared must not demote M
	if _, mod := c.lookup(5); !mod {
		t.Error("re-install demoted Modified line")
	}
}

func TestL1Conflict(t *testing.T) {
	// Three lines mapping to the same 2-way set: one must be evicted.
	c := newL1(512, 2)
	a := cache.LineAddr(0)
	b := cache.LineAddr(512)
	d := cache.LineAddr(1024)
	c.install(a, false)
	c.install(b, false)
	c.install(d, false)
	present := 0
	for _, addr := range []cache.LineAddr{a, b, d} {
		if hit, _ := c.lookup(addr); hit {
			present++
		}
	}
	if present != 2 {
		t.Errorf("%d of 3 conflicting lines present, want 2", present)
	}
}

func TestL1SetMappingIsModulo(t *testing.T) {
	f := func(addr uint32) bool {
		c := newL1(512, 2)
		set, tag := c.place(cache.LineAddr(addr))
		if set != int(addr%512) {
			return false
		}
		return tag == uint64(addr)/512
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestL1DistinctAddressesDontAlias(t *testing.T) {
	// Two addresses with the same set but different tags never alias.
	c := newL1(512, 2)
	a := cache.LineAddr(3)
	b := cache.LineAddr(3 + 512)
	c.install(a, true)
	c.install(b, false)
	if _, mod := c.lookup(b); mod {
		t.Error("address b aliased to a's Modified state")
	}
	if _, mod := c.lookup(a); !mod {
		t.Error("address a lost its state")
	}
}

// refL1 is the L1 as it was before its flat layout: a cache.Bank of full
// entries with modulo placement. TestL1MatchesReference drives it beside
// l1 as the oracle.
type refL1 struct {
	bank *cache.Bank
	sets int

	Hits, Misses uint64
}

func newRefL1(sets, ways int) *refL1 {
	return &refL1{bank: cache.NewBank(sets, ways), sets: sets}
}

func (c *refL1) place(a cache.LineAddr) (set int, tag uint64) {
	return int(uint64(a) % uint64(c.sets)), uint64(a) / uint64(c.sets)
}

func (c *refL1) lookup(a cache.LineAddr) (hit, modified bool) {
	set, tag := c.place(a)
	s := c.bank.Set(set)
	way, ok := s.Lookup(tag)
	if !ok {
		c.Misses++
		return false, false
	}
	c.Hits++
	s.Touch(way)
	return true, s.Way(way).Dirty
}

func (c *refL1) install(a cache.LineAddr, modified bool) {
	set, tag := c.place(a)
	s := c.bank.Set(set)
	if way, ok := s.Lookup(tag); ok {
		e := s.Way(way)
		e.Dirty = e.Dirty || modified
		s.Touch(way)
		return
	}
	way, _, _ := s.Insert(tag)
	s.Way(way).Dirty = modified
}

func (c *refL1) invalidate(a cache.LineAddr) bool {
	set, tag := c.place(a)
	return c.bank.Set(set).Invalidate(tag)
}

// foldOf returns the digest lane value that fold leaves on a fresh chain.
func foldOf(fold func(*digest.Recorder)) uint64 {
	r := digest.NewRecorder(1)
	r.SetWalker(fold)
	r.Tick(1)
	return r.LaneValue(digest.LaneCPU)
}

// TestL1MatchesReference drives the flat L1 and the Bank-backed reference
// through the same seeded random lookups, installs and invalidations, at
// every associativity from 1 to 64 ways and at 1, 2 and 512 sets. After
// every step the return values, the hit and miss counters and the digest
// folds must agree, so the flat array replaces, evicts and digests
// exactly as the Bank did.
func TestL1MatchesReference(t *testing.T) {
	for _, sets := range []int{1, 2, 512} {
		for ways := 1; ways <= cache.MaxWays; ways *= 2 {
			t.Run(fmt.Sprintf("%dx%d", sets, ways), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(sets*cache.MaxWays + ways)))
				c, ref := newL1(sets, ways), newRefL1(sets, ways)
				full := false
				for step := 0; step < 300+8*ways; step++ {
					// 2w+1 tags in at most two sets fill them and keep
					// them under replacement pressure.
					a := cache.LineAddr(rng.Intn(2*ways+1)*sets + rng.Intn(min(sets, 2)))
					var got, want [2]bool
					var op string
					switch r := rng.Intn(18); {
					case r < 8:
						op = "lookup"
						got[0], got[1] = c.lookup(a)
						want[0], want[1] = ref.lookup(a)
					case r < 15:
						op = "install"
						mod := rng.Intn(2) == 0
						c.install(a, mod)
						ref.install(a, mod)
						set, _ := ref.place(a)
						full = full || ref.bank.Set(set).ValidCount() == ways
					default:
						op = "invalidate"
						got[0], want[0] = c.invalidate(a), ref.invalidate(a)
					}
					if got != want || c.Hits != ref.Hits || c.Misses != ref.Misses {
						t.Fatalf("step %d: %s(%d) = %v, hits %d, misses %d; reference %v, %d, %d",
							step, op, a, got, c.Hits, c.Misses, want, ref.Hits, ref.Misses)
					}
					if g, w := foldOf(c.tags.DigestFold), foldOf(ref.bank.DigestFold); g != w {
						t.Fatalf("step %d: after %s(%d) the digest fold is %x, reference %x", step, op, a, g, w)
					}
				}
				if !full {
					t.Fatal("no set filled, so no install chose a pseudo-LRU victim")
				}
			})
		}
	}
}

func TestMsgKindStrings(t *testing.T) {
	kinds := []msgKind{msgProbeRead, msgProbeExcl, msgNack, msgData,
		msgInval, msgInvalAck, msgMigData, msgMigInval}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "Unknown" || seen[s] {
			t.Errorf("kind %d has bad or duplicate name %q", k, s)
		}
		seen[s] = true
	}
}

func TestMsgFlits(t *testing.T) {
	if msgData.flits() != 4 || msgMigData.flits() != 4 {
		t.Error("data messages must be 4 flits (one 64-byte line)")
	}
	for _, k := range []msgKind{msgProbeRead, msgProbeExcl, msgNack, msgInval, msgInvalAck, msgMigInval} {
		if k.flits() != 1 {
			t.Errorf("%v must be a single flit", k)
		}
	}
}
