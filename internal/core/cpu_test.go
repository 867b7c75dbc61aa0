package core

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/trace"
)

func TestCPUBlockingLoad(t *testing.T) {
	s := testSystem(t, config.CMPDNUCA3D)
	c := s.CPUs[0]
	addr := cache.LineAddr(0x10)
	s.Clusters[c.cluster].install(addr, 0, false)

	// A load that misses L1 blocks until data returns, then fills the L1.
	// The transaction issues after the L1 lookup latency.
	c.load(&trace.Ref{Addr: addr})
	s.Engine.Run(uint64(s.Cfg.L1HitCycles) + 1)
	drain(t, s)
	s.Engine.Run(10)
	if hit, mod := c.l1.lookup(addr); !hit || mod {
		t.Errorf("after load: hit=%v mod=%v, want Shared fill", hit, mod)
	}
	if c.loads != 1 {
		t.Errorf("loads = %d", c.loads)
	}
}

func TestCPUStoreFillsModified(t *testing.T) {
	s := testSystem(t, config.CMPDNUCA3D)
	c := s.CPUs[0]
	addr := cache.LineAddr(0x20)
	s.Clusters[c.cluster].install(addr, 0, false)

	c.store(&trace.Ref{Addr: addr, Write: true})
	drain(t, s)
	s.Engine.Run(10)
	if _, mod := c.l1.lookup(addr); !mod {
		t.Error("store completion did not fill Modified")
	}
	if c.storeCredits != storeBufferSlots {
		t.Errorf("store credit not returned: %d", c.storeCredits)
	}
}

func TestCPUStoreHitModifiedIsFree(t *testing.T) {
	s := testSystem(t, config.CMPDNUCA3D)
	c := s.CPUs[0]
	addr := cache.LineAddr(0x30)
	c.l1.install(addr, true)
	before := s.M.L2Accesses.Value()
	c.store(&trace.Ref{Addr: addr, Write: true})
	s.Engine.Run(10)
	if s.M.L2Accesses.Value() != before {
		t.Error("store to Modified line generated L2 traffic")
	}
}

func TestCPUStoreHitSharedUpgrades(t *testing.T) {
	s := testSystem(t, config.CMPDNUCA3D)
	c := s.CPUs[0]
	addr := cache.LineAddr(0x40)
	s.Clusters[c.cluster].install(addr, 0, false)
	c.l1.install(addr, false) // Shared in L1
	c.store(&trace.Ref{Addr: addr, Write: true})
	drain(t, s)
	s.Engine.Run(10)
	if _, mod := c.l1.lookup(addr); !mod {
		t.Error("shared line not upgraded to Modified after store")
	}
	if s.M.L2Accesses.Value() != 1 {
		t.Errorf("upgrade generated %d L2 accesses, want 1", s.M.L2Accesses.Value())
	}
}

func TestCPUStoreBufferBlocks(t *testing.T) {
	s := testSystem(t, config.CMPDNUCA3D)
	c := s.CPUs[0]
	// Issue more store misses than buffer slots, back to back; the extra
	// one must park in blockedStore instead of issuing.
	for i := 0; i <= storeBufferSlots; i++ {
		addr := cache.LineAddr(0x1000 + i*0x100)
		s.Clusters[c.cluster].install(addr, 0, false)
		c.store(&trace.Ref{Addr: addr, Write: true})
	}
	if !c.hasBlocked {
		t.Fatal("store buffer overflow did not block")
	}
	if c.storeCredits != 0 {
		t.Fatalf("credits = %d with blocked store", c.storeCredits)
	}
	drain(t, s)
	s.Engine.Run(100)
	if c.hasBlocked {
		t.Error("blocked store never resumed")
	}
	if c.storeCredits != storeBufferSlots {
		t.Errorf("credits = %d after drain, want %d", c.storeCredits, storeBufferSlots)
	}
}

func TestCPUInstructionAccounting(t *testing.T) {
	prof, _ := trace.ProfileByName("ammp", 8)
	s, err := NewSystem(config.Default(config.CMPDNUCA3D), prof, 3)
	if err != nil {
		t.Fatal(err)
	}
	s.Warm(3)
	s.Start()
	s.Run(10_000)
	for i, c := range s.CPUs {
		if c.instrs == 0 {
			t.Errorf("CPU %d executed nothing", i)
		}
		if c.loads == 0 || c.stores == 0 {
			t.Errorf("CPU %d: loads=%d stores=%d", i, c.loads, c.stores)
		}
		// Memory references can't exceed instructions.
		if c.loads+c.stores > c.instrs {
			t.Errorf("CPU %d: %d refs > %d instrs", i, c.loads+c.stores, c.instrs)
		}
	}
}

func TestCPUsDesynchronized(t *testing.T) {
	// Cores start staggered; their instruction counts should not be in
	// lockstep after a while (different reference streams).
	prof, _ := trace.ProfileByName("mgrid", 8)
	s, err := NewSystem(config.Default(config.CMPDNUCA3D), prof, 3)
	if err != nil {
		t.Fatal(err)
	}
	s.Warm(3)
	s.Start()
	s.Run(20_000)
	counts := map[uint64]int{}
	for _, c := range s.CPUs {
		counts[c.instrs]++
	}
	if len(counts) < 2 {
		t.Error("all CPUs in lockstep")
	}
}

func TestRouterPipelineSlowsL2(t *testing.T) {
	run := func(pipe int) float64 {
		prof, _ := trace.ProfileByName("art", 8)
		cfg := config.Default(config.CMPDNUCA3D)
		cfg.RouterPipeline = pipe
		s, err := NewSystem(cfg, prof, 5)
		if err != nil {
			t.Fatal(err)
		}
		s.Warm(5)
		s.Start()
		s.Run(20_000)
		s.ResetStats()
		s.Run(40_000)
		return s.Results().AvgL2HitLatency
	}
	one, four := run(1), run(4)
	if four <= one+5 {
		t.Errorf("4-stage routers (%.1f) not clearly slower than single-stage (%.1f)", four, one)
	}
}

func TestBroadcastSearchFindsEverythingInOneStep(t *testing.T) {
	prof, _ := trace.ProfileByName("art", 8)
	cfg := config.Default(config.CMPDNUCA3D)
	cfg.BroadcastSearch = true
	s, err := NewSystem(cfg, prof, 5)
	if err != nil {
		t.Fatal(err)
	}
	// A line in the farthest cluster is still found without step 2.
	addr := cache.LineAddr(0x50)
	s.Clusters[s.Top.NumClusters()-1].install(addr, 0, false)
	s.startTxn(s.CPUs[0], addr, false)
	drain(t, s)
	if s.M.Step2Searches.Value() != 0 {
		t.Error("broadcast search escalated to step 2")
	}
	if s.M.L2Hits.Value() != 1 {
		t.Error("broadcast search missed a resident line")
	}
	if s.M.ProbesSent.Value() != uint64(s.Top.NumClusters()) {
		t.Errorf("probes = %d, want %d", s.M.ProbesSent.Value(), s.Top.NumClusters())
	}
}

func TestInstructionFetchPath(t *testing.T) {
	prof, _ := trace.ProfileByName("fma3d", 8) // largest code footprint
	s, err := NewSystem(config.Default(config.CMPDNUCA3D), prof, 3)
	if err != nil {
		t.Fatal(err)
	}
	s.Warm(3)
	s.Start()
	s.Run(40_000)
	var fetches, misses uint64
	for _, c := range s.CPUs {
		fetches += c.ifetches
		misses += c.ifetchMisses
	}
	if fetches == 0 {
		t.Fatal("no instruction fetches")
	}
	if misses == 0 {
		t.Fatal("fma3d's 384KB code never missed a 64KB L1I")
	}
	if misses > fetches {
		t.Fatalf("misses %d > fetches %d", misses, fetches)
	}
}

func TestIfetchFillsL1INotL1D(t *testing.T) {
	s := testSystem(t, config.CMPDNUCA3D)
	c := s.CPUs[0]
	prof := s.profs[0]
	codeLine := prof.CodeRegion().Line(0)
	s.Clusters[s.Cfg.L2.PlaceOf(codeLine).HomeCluster].install(codeLine, 0, false)

	ref := &trace.Ref{Addr: 0x999, HasCode: true, Code: codeLine}
	s.Clusters[s.Cfg.L2.PlaceOf(0x999).HomeCluster].install(0x999, 0, false)
	c.access(ref)
	s.Engine.Run(uint64(s.Cfg.L1HitCycles) + 1)
	drain(t, s)
	s.Engine.Run(20)
	if hit, _ := c.l1i.lookup(codeLine); !hit {
		t.Error("code line not in L1I")
	}
	if hit, _ := c.l1.lookup(codeLine); hit {
		t.Error("code line leaked into L1D")
	}
}

func TestSmallCodeFootprintRarelyMisses(t *testing.T) {
	// mgrid's 32KB loop nest fits the 64KB L1I: after warm-up, fetch misses
	// must be a tiny fraction of fetches.
	prof, _ := trace.ProfileByName("mgrid", 8)
	s, err := NewSystem(config.Default(config.CMPDNUCA3D), prof, 3)
	if err != nil {
		t.Fatal(err)
	}
	s.Warm(3)
	s.Start()
	s.Run(40_000)
	var fetches, misses uint64
	for _, c := range s.CPUs {
		fetches += c.ifetches
		misses += c.ifetchMisses
	}
	if fetches == 0 {
		t.Fatal("no fetches")
	}
	if rate := float64(misses) / float64(fetches); rate > 0.02 {
		t.Errorf("mgrid ifetch miss rate %.3f implausibly high", rate)
	}
}
