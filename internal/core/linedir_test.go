package core

import (
	"maps"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/trace"
)

// checkDir asserts that the directory holds exactly the reference map's
// pairs, that it retains no empty page, and that its cached page is live.
func checkDir(t *testing.T, d *lineDir, ref map[cache.LineAddr]int, step string) {
	t.Helper()
	if d.Len() != len(ref) {
		t.Fatalf("%s: Len %d, want %d", step, d.Len(), len(ref))
	}
	got := make(map[cache.LineAddr]int, len(ref))
	d.Walk(func(addr cache.LineAddr, cluster int) {
		if _, dup := got[addr]; dup {
			t.Fatalf("%s: walk visited %#x twice", step, uint64(addr))
		}
		got[addr] = cluster
	})
	if !maps.Equal(got, ref) {
		t.Fatalf("%s: walked %v, want %v", step, got, ref)
	}
	for key, p := range d.pages {
		if p.live == 0 {
			t.Fatalf("%s: empty page %#x retained", step, key)
		}
	}
	if d.last != nil && d.pages[d.lastKey] != d.last {
		t.Fatalf("%s: cached page %#x is not in the page map", step, d.lastKey)
	}
}

// dirOp is one directory operation; cluster < 0 means Delete.
type dirOp struct {
	addr    cache.LineAddr
	cluster int
}

// applyDirOp applies op to the directory and the reference map, then
// checks that Get agrees for the address.
func applyDirOp(t *testing.T, d *lineDir, ref map[cache.LineAddr]int, op dirOp, step string) {
	t.Helper()
	if op.cluster < 0 {
		d.Delete(op.addr)
		delete(ref, op.addr)
	} else {
		d.Set(op.addr, op.cluster)
		ref[op.addr] = op.cluster
	}
	want, wantOK := ref[op.addr]
	if got, ok := d.Get(op.addr); ok != wantOK || wantOK && got != want {
		t.Fatalf("%s: Get(%#x) = %d, %v; want %d, %v", step, uint64(op.addr), got, ok, want, wantOK)
	}
	checkDir(t, d, ref, step)
}

func TestLineDirEdgeCases(t *testing.T) {
	const top = cache.LineAddr(1) << 63
	ops := []struct {
		name string
		op   dirOp
	}{
		{"last line of page 0", dirOp{63, 0}},
		{"first line of page 1", dirOp{64, 63}},
		{"address 0", dirOp{0, 5}},
		{"below 1<<63", dirOp{top - 1, 63}},
		{"at 1<<63", dirOp{top, 0}},
		{"highest address", dirOp{^cache.LineAddr(0), 17}},
		{"overwrite keeps the count", dirOp{63, 7}},
		{"delete page boundary line", dirOp{63, -1}},
		{"reuse deleted slot", dirOp{63, 1}},
		{"delete absent line in live page", dirOp{62, -1}},
		{"delete line in absent page", dirOp{1 << 20, -1}},
		{"fill cached page", dirOp{128, 3}},
		{"free cached page", dirOp{128, -1}},
		{"refill freed page", dirOp{130, 4}},
		{"free page 1", dirOp{64, -1}},
		{"free page below 1<<63", dirOp{top - 1, -1}},
		{"free page at 1<<63", dirOp{top, -1}},
		{"free highest page", dirOp{^cache.LineAddr(0), -1}},
	}
	d := newLineDir()
	ref := map[cache.LineAddr]int{}
	for _, o := range ops {
		applyDirOp(t, &d, ref, o.op, o.name)
	}
	// Freeing a page while it is the cached page must drop the cache, and
	// lookups in the freed page must miss without resurrecting it.
	d.Set(200, 9)
	if _, ok := d.Get(200); !ok || d.last == nil {
		t.Fatal("lookup did not cache the page")
	}
	d.Delete(200)
	if d.last != nil {
		t.Fatal("freed page still cached")
	}
	if _, ok := d.Get(201); ok {
		t.Fatal("lookup hit in a freed page")
	}
	delete(ref, 200)
	checkDir(t, &d, ref, "after freeing the cached page")
	if len(d.pages) != 2 {
		t.Fatalf("%d pages live, want 2 (lines 0 and 63, line 130)", len(d.pages))
	}
}

// TestLineDirMatchesMap runs random Set/Delete/Get sequences against a
// plain map. Addresses straddle page boundaries at both ends of the
// address space, a few lines on each side, so pages fill, empty, and are
// freed and recreated many times.
func TestLineDirMatchesMap(t *testing.T) {
	bases := []cache.LineAddr{0, 64 * 1000, 1<<63 - 64, ^cache.LineAddr(0) - 127}
	rng := rand.New(rand.NewSource(1))
	d := newLineDir()
	ref := map[cache.LineAddr]int{}
	frees := 0
	for i := 0; i < 20_000; i++ {
		addr := bases[rng.Intn(len(bases))] + cache.LineAddr(dirPageLines-4+rng.Intn(8))
		op := dirOp{addr, rng.Intn(64)}
		switch r := rng.Float64(); {
		case r < 0.45:
			op.cluster = -1
		case r < 0.6:
			// A lookup alone, possibly moving the cached page.
			want, wantOK := ref[addr]
			if got, ok := d.Get(addr); ok != wantOK || wantOK && got != want {
				t.Fatalf("step %d: Get(%#x) = %d, %v; want %d, %v", i, uint64(addr), got, ok, want, wantOK)
			}
			continue
		}
		pages := len(d.pages)
		applyDirOp(t, &d, ref, op, "random step")
		if len(d.pages) < pages {
			frees++
		}
	}
	if frees < 100 {
		t.Fatalf("only %d pages freed; the sequence does not exercise freeing", frees)
	}
}

// TestDirectoryMatchesTagArrays runs every scheme, plus victim
// replication, and stops at several arbitrary cycles to check that the
// line directory agrees with the tag arrays (CheckSingleCopy) while
// migrations, evictions and replicas are in flight.
func TestDirectoryMatchesTagArrays(t *testing.T) {
	variants := []struct {
		scheme config.Scheme
		vr     bool
	}{
		{config.CMPDNUCA, false},
		{config.CMPDNUCA2D, false},
		{config.CMPSNUCA3D, false},
		{config.CMPDNUCA3D, false},
		{config.CMPSNUCA3D, true},
		{config.CMPDNUCA3D, true},
	}
	stops := []uint64{1, 333, 1_777, 4_099, 9_973, 17_011, 26_357}
	for _, v := range variants {
		cfg := config.Default(v.scheme)
		cfg.VictimReplication = v.vr
		prof, _ := trace.ProfileByName("mgrid", cfg.NumCPUs)
		s, err := NewSystem(cfg, prof, 5)
		if err != nil {
			t.Fatal(err)
		}
		s.Warm(5)
		if err := s.CheckSingleCopy(); err != nil {
			t.Fatalf("%v vr=%v after warm: %v", v.scheme, v.vr, err)
		}
		s.Start()
		for _, stop := range stops {
			s.Run(stop - s.Engine.Now())
			if err := s.CheckSingleCopy(); err != nil {
				t.Fatalf("%v vr=%v at cycle %d: %v", v.scheme, v.vr, s.Engine.Now(), err)
			}
		}
		if v.scheme.Migrates() && s.M.Migrations.Value() == 0 {
			t.Errorf("%v vr=%v: no migrations, so none was in flight at a check", v.scheme, v.vr)
		}
		if s.M.Evictions.Value() == 0 {
			t.Errorf("%v vr=%v: no evictions, so the directory never lost a line", v.scheme, v.vr)
		}
	}
}
