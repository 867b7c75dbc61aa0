package trace

import (
	"math"
	"testing"

	"repro/internal/cache"
)

func TestProfilesCoverTable5(t *testing.T) {
	want := map[string]float64{
		"ammp": 24.508715, "apsi": 27.013447, "art": 25.638435,
		"equake": 27.502906, "fma3d": 12.599496, "galgel": 38.181613,
		"mgrid": 204.815737, "swim": 164.762040, "wupwise": 141.499738,
	}
	ps := Profiles(8)
	if len(ps) != 9 {
		t.Fatalf("got %d profiles, want 9", len(ps))
	}
	for _, p := range ps {
		w, ok := want[p.Name]
		if !ok {
			t.Errorf("unexpected benchmark %q", p.Name)
			continue
		}
		if math.Abs(p.L2TransactionsM-w) > 1e-9 {
			t.Errorf("%s: transactions %f, want %f", p.Name, p.L2TransactionsM, w)
		}
		if p.L1MissRate <= 0 || p.L1MissRate >= 0.1 {
			t.Errorf("%s: implausible L1 miss rate %f", p.Name, p.L1MissRate)
		}
		if p.MemRatio <= 0 || p.WriteFrac <= 0 || p.PrivateLines <= 0 {
			t.Errorf("%s: incomplete profile %+v", p.Name, p)
		}
	}
}

func TestHighTrafficBenchmarksHaveHigherMissRates(t *testing.T) {
	// mgrid, swim and wupwise must exhibit markedly higher L1 miss rates
	// than the rest — the paper's stated reason for their L2 access counts.
	ps := Profiles(8)
	rates := map[string]float64{}
	for _, p := range ps {
		rates[p.Name] = p.L1MissRate
	}
	high := []string{"mgrid", "swim", "wupwise"}
	low := []string{"ammp", "apsi", "art", "equake", "fma3d", "galgel"}
	for _, h := range high {
		for _, l := range low {
			if rates[h] <= 2*rates[l] {
				t.Errorf("%s (%.4f) not well above %s (%.4f)", h, rates[h], l, rates[l])
			}
		}
	}
}

func TestDeriveL1MissRate(t *testing.T) {
	// 204.8M transactions / (2e9 cycles x 8 CPUs x 0.3 x 0.5 IPC) ~ 8.53%.
	got := DeriveL1MissRate(204.815737, 8, 0.3)
	if math.Abs(got-0.08534) > 0.001 {
		t.Errorf("mgrid miss rate = %f", got)
	}
}

func TestProfileByName(t *testing.T) {
	p, ok := ProfileByName("swim", 8)
	if !ok || p.Name != "swim" {
		t.Fatalf("ProfileByName failed: %v %v", p, ok)
	}
	if _, ok := ProfileByName("nonexistent", 8); ok {
		t.Fatal("found nonexistent benchmark")
	}
	// It derives the same profile Profiles does, at every CPU count.
	for _, ncpu := range []int{4, 8, 16} {
		for _, want := range Profiles(ncpu) {
			if got, ok := ProfileByName(want.Name, ncpu); !ok || got != want {
				t.Errorf("ProfileByName(%q, %d) = %+v, %v; want %+v", want.Name, ncpu, got, ok, want)
			}
		}
	}
	// It runs on every daemon submission, so it must not build the table.
	if allocs := testing.AllocsPerRun(100, func() { ProfileByName("swim", 8) }); allocs != 0 {
		t.Errorf("ProfileByName allocates %.1f times per call, want 0", allocs)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	p, _ := ProfileByName("mgrid", 8)
	a := NewGenerator(p, 3, 7)
	b := NewGenerator(p, 3, 7)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("streams diverge at ref %d", i)
		}
	}
	c := NewGenerator(p, 3, 8)
	same := true
	for i := 0; i < 100; i++ {
		if a.Next() != c.Next() {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestGeneratorCPUSeparation(t *testing.T) {
	// Regions partition the address space by id: no private line of one
	// CPU can belong to another CPU's regions, and shared/code lines are
	// common to all.
	p, _ := ProfileByName("swim", 8)
	gens := make([]*Generator, 4)
	seen := make([]map[uint64]bool, 4)
	for i := range gens {
		gens[i] = NewGenerator(p, i, 1)
		seen[i] = map[uint64]bool{}
	}
	shared := p.SharedRegion()
	code := p.CodeRegion()
	for n := 0; n < 20000; n++ {
		for i, g := range gens {
			r := g.Next()
			if shared.Contains(r.Addr) || code.Contains(r.Addr) {
				continue
			}
			if !p.HotRegion(i).Contains(r.Addr) && !p.StreamRegion(i).Contains(r.Addr) {
				t.Fatalf("CPU %d emitted %#x outside its regions", i, uint64(r.Addr))
			}
			seen[i][uint64(r.Addr)] = true
		}
	}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			for a := range seen[i] {
				if seen[j][a] {
					t.Fatalf("CPUs %d and %d both touch private line %#x", i, j, a)
				}
			}
		}
	}
}

func TestGeneratorMissRateCalibration(t *testing.T) {
	// The fraction of data refs outside the hot set must track L1MissRate.
	for _, name := range []string{"ammp", "mgrid"} {
		p, _ := ProfileByName(name, 8)
		g := NewGenerator(p, 0, 99)
		hot := p.HotRegion(0)
		const n = 300000
		cold := 0
		for i := 0; i < n; i++ {
			if !hot.Contains(g.Next().Addr) {
				cold++
			}
		}
		got := float64(cold) / n
		if math.Abs(got-p.L1MissRate) > p.L1MissRate*0.15 {
			t.Errorf("%s: cold fraction %f, want ~%f", name, got, p.L1MissRate)
		}
	}
}

func TestGeneratorWriteFraction(t *testing.T) {
	p, _ := ProfileByName("art", 8)
	g := NewGenerator(p, 0, 5)
	writes := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if g.Next().Write {
			writes++
		}
	}
	got := float64(writes) / n
	if math.Abs(got-p.WriteFrac) > 0.02 {
		t.Errorf("write fraction %f, want ~%f", got, p.WriteFrac)
	}
}

func TestGeneratorGapMean(t *testing.T) {
	p, _ := ProfileByName("apsi", 8)
	g := NewGenerator(p, 0, 11)
	sum := 0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += g.Next().Gap
	}
	mean := float64(sum) / n
	want := (1 - p.MemRatio) / p.MemRatio
	if math.Abs(mean-want) > 0.1 {
		t.Errorf("gap mean %f, want ~%f", mean, want)
	}
}

func TestGeneratorSharedFraction(t *testing.T) {
	p, _ := ProfileByName("equake", 8)
	g := NewGenerator(p, 0, 17)
	sharedRegion := p.SharedRegion()
	hot := p.HotRegion(0)
	shared, misses := 0, 0
	for i := 0; i < 500000; i++ {
		r := g.Next()
		switch {
		case sharedRegion.Contains(r.Addr):
			shared++
			misses++
		case !hot.Contains(r.Addr):
			misses++
		}
	}
	got := float64(shared) / float64(misses)
	if math.Abs(got-p.SharedFrac) > 0.05 {
		t.Errorf("shared fraction of misses %f, want ~%f", got, p.SharedFrac)
	}
}

func TestRNGDeterminismAndSpread(t *testing.T) {
	r := newRNG(123)
	r2 := newRNG(123)
	for i := 0; i < 100; i++ {
		if r.next() != r2.next() {
			t.Fatal("rng not deterministic")
		}
	}
	// Zero seed must not wedge the generator.
	z := newRNG(0)
	if z.next() == 0 && z.next() == 0 {
		t.Error("zero seed produced zero stream")
	}
	// intn stays in range.
	for i := 0; i < 1000; i++ {
		if v := r.intn(7); v < 0 || v >= 7 {
			t.Fatalf("intn out of range: %d", v)
		}
	}
	// float stays in [0,1).
	for i := 0; i < 1000; i++ {
		if f := r.float(); f < 0 || f >= 1 {
			t.Fatalf("float out of range: %f", f)
		}
	}
}

func TestRNGIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("intn(0) must panic")
		}
	}()
	newRNG(1).intn(0)
}

// lines converts an int to a line-address offset for test readability.
func lines(n int) cache.LineAddr { return cache.LineAddr(n) }

func TestCodeStream(t *testing.T) {
	p, _ := ProfileByName("fma3d", 8)
	g := NewGenerator(p, 0, 3)
	code := p.CodeRegion()
	if code.Len() <= p.CodeLines || p.CodeLines == 0 {
		t.Fatalf("code region n=%d must cover hot (%d) plus cold lines", code.Len(), p.CodeLines)
	}
	fetches := 0
	seen := map[cache.LineAddr]bool{}
	const refs = 200000
	for i := 0; i < refs; i++ {
		r := g.Next()
		if !r.HasCode {
			continue
		}
		fetches++
		if !code.Contains(r.Code) {
			t.Fatalf("code line %#x outside region", uint64(r.Code))
		}
		seen[r.Code] = true
	}
	if fetches == 0 {
		t.Fatal("no code-line crossings")
	}
	// Jumps plus fall-through must reach a broad part of the hot region.
	if len(seen) < p.CodeLines/4 {
		t.Errorf("only %d of %d hot code lines touched", len(seen), p.CodeLines)
	}
	// Roughly one crossing per instrsPerCodeLine instructions, plus jumps:
	// the crossing rate per reference should be well under 1.
	rate := float64(fetches) / refs
	if rate < 0.1 || rate > 0.5 {
		t.Errorf("code crossing rate %.3f implausible", rate)
	}
}

func TestCodeRegionSharedAcrossCPUs(t *testing.T) {
	p, _ := ProfileByName("art", 8)
	code := p.CodeRegion()
	line := func(g *Generator) cache.LineAddr {
		for {
			if r := g.Next(); r.HasCode {
				return r.Code
			}
		}
	}
	// Both CPUs fetch from the same region (same binary).
	if !code.Contains(line(NewGenerator(p, 0, 1))) {
		t.Fatal("cpu0 outside code region")
	}
	if !code.Contains(line(NewGenerator(p, 3, 1))) {
		t.Fatal("cpu3 outside code region")
	}
}
