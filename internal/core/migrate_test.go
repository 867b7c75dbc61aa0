package core

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/config"
)

func TestClusterStepMovesXFirst(t *testing.T) {
	s := testSystem(t, config.CMPDNUCA3D)
	// Cluster grid is 4x2 per layer. From cluster 0 (0,0) toward cluster 7
	// (3,1): X first.
	next := s.clusterStep(0, 7)
	if next != 1 {
		t.Errorf("step = %d, want 1 (east)", next)
	}
	// X aligned: move in Y.
	next = s.clusterStep(3, 7)
	if next != 7 {
		t.Errorf("step = %d, want 7 (south)", next)
	}
	// Stays on its layer.
	layer1From := 8 // first cluster of layer 1
	next = s.clusterStep(layer1From, 15)
	if s.Top.ClusterLayer(next) != 1 {
		t.Errorf("step crossed layers: %d", next)
	}
}

func TestMigrationTargetSameLayer(t *testing.T) {
	s := testSystem(t, config.CMPDNUCA3D)
	cpu := 0
	home := s.Top.CPUCluster(cpu)
	// From the CPU's own cluster: no migration.
	if got := s.migrationTarget(home, cpu); got != -1 {
		t.Errorf("migration from local cluster = %d, want -1", got)
	}
}

func TestMigrationTargetOtherLayerHeadsToPillar(t *testing.T) {
	s := testSystem(t, config.CMPDNUCA3D)
	cpu := 0
	cpuPos := s.Top.CPUs[cpu]
	other := 1 - cpuPos.Layer
	pillar := s.Top.PillarOf(cpuPos)
	pillarCluster := s.Top.ClusterOf(withLayer(pillar, other))

	// From the pillar cluster itself: settled, no migration.
	if got := s.migrationTarget(pillarCluster, cpu); got != -1 {
		t.Errorf("migration from pillar cluster = %d, want -1", got)
	}
	// From any other cluster on that layer: one step, same layer, strictly
	// closer to the pillar cluster.
	per := s.Top.ClustersPerLayer()
	for i := 0; i < per; i++ {
		from := other*per + i
		if from == pillarCluster {
			continue
		}
		got := s.migrationTarget(from, cpu)
		if got < 0 {
			continue // fully blocked paths are allowed to stay put
		}
		if s.Top.ClusterLayer(got) != other {
			t.Fatalf("from %d: target %d crossed layers", from, got)
		}
		if clusterDist(s, got, pillarCluster) >= clusterDist(s, from, pillarCluster) {
			t.Fatalf("from %d: target %d not closer to pillar cluster %d",
				from, got, pillarCluster)
		}
	}
}

func TestStepTowardWithoutSkipLandsAnywhere(t *testing.T) {
	s := testSystem(t, config.CMPDNUCA3D)
	s.Cfg.SkipCPUClusters = false
	cpu := 0
	dst := s.Top.CPUCluster(cpu)
	layer := s.Top.ClusterLayer(dst)
	per := s.Top.ClustersPerLayer()
	for i := 0; i < per; i++ {
		from := layer*per + i
		if from == dst {
			continue
		}
		next := s.stepToward(from, dst, cpu)
		// Without skipping, the step is always the adjacent cluster.
		if next != s.clusterStep(from, dst) {
			t.Errorf("from %d: next = %d, want plain grid step %d",
				from, next, s.clusterStep(from, dst))
		}
	}
}

func TestMigrationThresholdRespected(t *testing.T) {
	s := testSystem(t, config.CMPDNUCA3D)
	cpu := s.CPUs[0]
	layer := cpu.pos.Layer
	per := s.Top.ClustersPerLayer()
	far := -1
	for i := 0; i < per; i++ {
		id := layer*per + i
		if id != cpu.cluster && s.clusterCPU[id] < 0 {
			far = id
		}
	}
	addr := cache.LineAddr(0x1001)
	s.Clusters[far].install(addr, 0, false)

	// threshold-1 accesses: no migration yet.
	for i := 0; i < s.Cfg.MigrationThreshold-1; i++ {
		s.startTxn(cpu, addr, false)
		drain(t, s)
	}
	if s.M.Migrations.Value() != 0 {
		t.Fatalf("migrated after %d hits (threshold %d)",
			s.Cfg.MigrationThreshold-1, s.Cfg.MigrationThreshold)
	}
	// One more triggers it.
	s.startTxn(cpu, addr, false)
	drain(t, s)
	if s.M.Migrations.Value() != 1 {
		t.Fatalf("migrations = %d after threshold hits", s.M.Migrations.Value())
	}
}

func TestAlternatingCPUsPreventMigration(t *testing.T) {
	// Two CPUs alternating on a line never accumulate threshold consecutive
	// hits, so a contended line stays put — the policy's intended behavior
	// for shared data.
	s := testSystem(t, config.CMPDNUCA3D)
	// Find a cluster that is remote to both CPU 0 and CPU 1.
	c0, c1 := s.Top.CPUCluster(0), s.Top.CPUCluster(1)
	far := -1
	for id := range s.Clusters {
		if id != c0 && id != c1 && s.clusterCPU[id] < 0 {
			far = id
		}
	}
	addr := cache.LineAddr(0x2002)
	s.Clusters[far].install(addr, 0, false)
	for i := 0; i < 8; i++ {
		s.startTxn(s.CPUs[i%2], addr, false)
		drain(t, s)
	}
	if s.M.Migrations.Value() != 0 {
		t.Errorf("contended line migrated %d times", s.M.Migrations.Value())
	}
	if lineAt(s, addr) != far {
		t.Error("contended line moved")
	}
}

func TestMigratingFlagPreventsDoubleMigration(t *testing.T) {
	s := testSystem(t, config.CMPDNUCA3D)
	cpu := s.CPUs[0]
	layer := cpu.pos.Layer
	per := s.Top.ClustersPerLayer()
	far := -1
	for i := 0; i < per; i++ {
		id := layer*per + i
		if id != cpu.cluster && s.clusterCPU[id] < 0 {
			far = id
		}
	}
	addr := cache.LineAddr(0x3003)
	s.Clusters[far].install(addr, 0, false)
	// Hammer the line with enough back-to-back accesses to trigger the
	// threshold several times over before the first migration completes.
	for i := 0; i < 3*s.Cfg.MigrationThreshold; i++ {
		s.startTxn(cpu, addr, false)
	}
	drain(t, s)
	s.Engine.Run(5000)
	if err := s.CheckSingleCopy(); err != nil {
		t.Fatal(err)
	}
	// Exactly one migration can have started from the original location
	// before its Migrating flag was set (subsequent steps may chain from
	// the new location, but each location migrates at most once per visit).
	if s.M.Migrations.Value() > 3 {
		t.Errorf("implausibly many migrations: %d", s.M.Migrations.Value())
	}
}
