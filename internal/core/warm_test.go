package core

import (
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/trace"
)

// TestStaticWarmNeverSpills is the regression test for a subtle modeling
// bug: warm-up once spilled lines that did not fit their home cluster into
// neighboring clusters. A migrating scheme's search finds such lines, but a
// static NUCA only ever looks at the home cluster — spilled lines became
// permanently invisible, and every access paid a full memory round trip
// that was then recorded as a ~300-cycle "hit" through the post-fetch
// forwarding path.
func TestStaticWarmNeverSpills(t *testing.T) {
	for _, bench := range []string{"mgrid", "swim", "fma3d"} {
		prof, _ := trace.ProfileByName(bench, 8)
		s, err := NewSystem(config.Default(config.CMPSNUCA3D), prof, 1)
		if err != nil {
			t.Fatal(err)
		}
		s.Warm(1)
		s.lineDir.Walk(func(addr cache.LineAddr, loc int) {
			if home := s.Cfg.L2.PlaceOf(addr).HomeCluster; loc != home {
				t.Fatalf("%s: line %#x warmed into cluster %d, home %d",
					bench, uint64(addr), loc, home)
			}
		})
	}
}

func TestStaticHitTailBounded(t *testing.T) {
	// End-to-end guard on the same bug: a static scheme's hit latency can
	// never approach memory latency, because every hit is a direct
	// home-cluster access.
	prof, _ := trace.ProfileByName("mgrid", 8)
	s, err := NewSystem(config.Default(config.CMPSNUCA3D), prof, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.Warm(1)
	s.Start()
	s.Run(40_000)
	s.ResetStats()
	s.Run(120_000)
	r := s.Results()
	if r.L2Hits == 0 {
		t.Fatal("no hits")
	}
	if r.P99L2HitLatency >= uint64(s.Cfg.MemoryCycles) {
		t.Errorf("P99 hit latency %d reaches memory latency: invisible lines?",
			r.P99L2HitLatency)
	}
}

func TestWarmMigratingPlacesInVicinity(t *testing.T) {
	prof, _ := trace.ProfileByName("art", 8)
	s, err := NewSystem(config.Default(config.CMPDNUCA3D), prof, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.Warm(1)
	// A good fraction of each CPU's private lines must be resident in its
	// own cluster after warm (art localizes heavily).
	for id := range s.CPUs {
		st := prof.StreamRegion(id)
		local := 0
		for i := 0; i < st.Len(); i++ {
			if loc, ok := s.lineDir.Get(st.Line(i)); ok && loc == s.CPUs[id].cluster {
				local++
			}
		}
		if float64(local) < 0.3*float64(st.Len()) {
			t.Errorf("CPU %d: only %d of %d private lines local after warm", id, local, st.Len())
		}
	}
}

func TestWarmSeedsMigrationCounters(t *testing.T) {
	prof, _ := trace.ProfileByName("swim", 8)
	s, err := NewSystem(config.Default(config.CMPDNUCA3D), prof, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.Warm(1)
	// Un-localized private lines sit one hit below the migration threshold.
	st := prof.StreamRegion(0)
	seeded := 0
	for i := 0; i < st.Len(); i++ {
		addr := st.Line(i)
		loc, ok := s.lineDir.Get(addr)
		if !ok || loc == s.CPUs[0].cluster {
			continue
		}
		p := s.Cfg.L2.PlaceOf(addr)
		if way, found := s.Clusters[loc].set(p).Lookup(p.Tag); found {
			if int(s.Clusters[loc].set(p).Way(way).Hits) == s.Cfg.MigrationThreshold-1 {
				seeded++
			}
		}
	}
	if seeded == 0 {
		t.Error("no mid-migration counters seeded")
	}
}

func TestHeatmapOutput(t *testing.T) {
	prof, _ := trace.ProfileByName("art", 8)
	s, err := NewSystem(config.Default(config.CMPDNUCA3D), prof, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.Warm(1)
	s.Start()
	s.Run(20_000)
	var sb strings.Builder
	s.WriteHeatmap(&sb)
	out := sb.String()
	if !strings.Contains(out, "layer 0:") || !strings.Contains(out, "layer 1:") {
		t.Error("heatmap missing layer sections")
	}
	if !strings.Contains(out, "C") {
		t.Error("heatmap missing CPU markers")
	}
	var br strings.Builder
	s.BusReport(&br)
	if !strings.Contains(br.String(), "bus 0") {
		t.Errorf("bus report missing rows: %q", br.String())
	}
}

// TestNewSystemAllocs pins machine construction's allocation count. Each
// bank's sets are windows of one entry slab, so the default machine's 16k
// L2 sets and 8k L1 sets cost three allocations per bank, not two per set.
func TestNewSystemAllocs(t *testing.T) {
	cfg := config.Default(config.CMPDNUCA3D)
	prof, _ := trace.ProfileByName("mgrid", cfg.NumCPUs)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := NewSystem(cfg, prof, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 10000 {
		t.Errorf("NewSystem made %.0f allocations, want at most 10000", allocs)
	}
}

// warmSink keeps BenchmarkWarm's machines live so the work is not elided.
var warmSink *System

// BenchmarkWarm times building and warming a machine: the set-up every
// sweep point and every daemon job pays before its first simulated cycle.
// "default" is the paper's CMP-DNUCA-3D machine, "stacked" the four-layer
// machine with stacked CPUs.
func BenchmarkWarm(b *testing.B) {
	stacked := config.Default(config.CMPDNUCA3D)
	stacked.Layers = 4
	stacked.StackCPUs = true
	for _, c := range []struct {
		name string
		cfg  config.Config
	}{
		{"default", config.Default(config.CMPDNUCA3D)},
		{"stacked", stacked},
	} {
		b.Run(c.name, func(b *testing.B) {
			prof, _ := trace.ProfileByName("mgrid", c.cfg.NumCPUs)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := NewSystem(c.cfg, prof, 1)
				if err != nil {
					b.Fatal(err)
				}
				s.Warm(1)
				warmSink = s
			}
		})
	}
}
