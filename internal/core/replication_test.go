package core

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/trace"
)

// vrSystem builds an un-started SNUCA+VR system for hand-driven tests.
func vrSystem(t *testing.T) *System {
	t.Helper()
	prof, _ := trace.ProfileByName("ammp", 8)
	cfg := config.Default(config.CMPSNUCA3D)
	cfg.VictimReplication = true
	s, err := NewSystem(cfg, prof, 7)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// remoteAddr returns a line whose home cluster is neither the CPU's local
// cluster nor on a set the CPU's cluster has special state in.
func remoteAddr(s *System, cpu *CPU) cache.LineAddr {
	for a := cache.LineAddr(0); ; a++ {
		if s.Cfg.L2.PlaceOf(a).HomeCluster != cpu.cluster {
			return a
		}
	}
}

func TestReplicationCreatesLocalCopy(t *testing.T) {
	s := vrSystem(t)
	cpu := s.CPUs[0]
	addr := remoteAddr(s, cpu)
	home := s.Cfg.L2.PlaceOf(addr).HomeCluster
	s.Clusters[home].install(addr, 0, false)

	// First read: local replica check misses, home hits, replica pushed.
	s.startTxn(cpu, addr, false)
	drain(t, s)
	s.Engine.Run(2000) // let the replica land
	if s.M.Replications.Value() != 1 {
		t.Fatalf("replications = %d, want 1", s.M.Replications.Value())
	}
	if !s.Clusters[cpu.cluster].lookup(addr) {
		t.Fatal("replica not resident in the local cluster")
	}
	if lineAt(s, addr) != home {
		t.Error("primary location moved")
	}
	if err := s.CheckSingleCopy(); err != nil {
		t.Fatal(err)
	}

	// Second read: the parallel local probe hits the replica; the home
	// reply arrives later and is dropped as a duplicate.
	probesBefore := s.M.ProbesSent.Value()
	s.startTxn(cpu, addr, false)
	drain(t, s)
	if got := s.M.ProbesSent.Value() - probesBefore; got != 2 {
		t.Errorf("second read sent %d probes, want 2 (local + home in parallel)", got)
	}
	if s.M.ReplicaHits.Value() == 0 {
		t.Error("no replica hit recorded")
	}
}

func TestReplicationLowersLatency(t *testing.T) {
	s := vrSystem(t)
	cpu := s.CPUs[0]
	addr := remoteAddr(s, cpu)
	home := s.Cfg.L2.PlaceOf(addr).HomeCluster
	s.Clusters[home].install(addr, 0, false)

	s.startTxn(cpu, addr, false)
	drain(t, s)
	first := s.M.HitLatency.Max()
	s.Engine.Run(2000)
	s.M.HitLatency.Reset()

	s.startTxn(cpu, addr, false)
	drain(t, s)
	second := s.M.HitLatency.Max()
	if second >= first {
		t.Errorf("replica hit (%d) not faster than remote hit (%d)", second, first)
	}
}

func TestWriteInvalidatesReplicas(t *testing.T) {
	s := vrSystem(t)
	cpu := s.CPUs[0]
	addr := remoteAddr(s, cpu)
	home := s.Cfg.L2.PlaceOf(addr).HomeCluster
	s.Clusters[home].install(addr, 0, false)

	s.startTxn(cpu, addr, false) // read -> replica
	drain(t, s)
	s.Engine.Run(2000)
	if !s.Clusters[cpu.cluster].lookup(addr) {
		t.Fatal("setup: replica missing")
	}

	// Another CPU writes: the replica must die.
	writer := s.CPUs[1]
	s.startTxn(writer, addr, true)
	drain(t, s)
	s.Engine.Run(2000)
	if s.Clusters[cpu.cluster].lookup(addr) {
		t.Error("replica survived a remote write")
	}
	if s.M.ReplicaInvals.Value() == 0 {
		t.Error("no replica invalidations counted")
	}
	if len(s.replicas) != 0 {
		t.Errorf("replica mask not empty: %v", s.replicas)
	}
}

func TestReplicaNeverDisplacesPrimary(t *testing.T) {
	s := vrSystem(t)
	cpu := s.CPUs[0]
	addr := remoteAddr(s, cpu)
	home := s.Cfg.L2.PlaceOf(addr).HomeCluster
	s.Clusters[home].install(addr, 0, false)

	// Fill the target set in the CPU's local cluster with primaries.
	p := s.Cfg.L2.PlaceOf(addr)
	stride := cache.LineAddr(s.Cfg.L2.BanksPerCluster * s.Cfg.L2.SetsPerBank * s.Cfg.L2.Clusters)
	local := s.Clusters[cpu.cluster]
	for i := 1; i <= s.Cfg.L2.Ways; i++ {
		local.install(addr+stride*cache.LineAddr(i), 0, false)
	}
	if got := local.set(p).ValidCount(); got != s.Cfg.L2.Ways {
		t.Fatalf("setup: set holds %d", got)
	}

	s.startTxn(cpu, addr, false)
	drain(t, s)
	s.Engine.Run(2000)
	// Replication attempted but found no displaceable way.
	way, ok := local.set(p).Lookup(p.Tag)
	if ok && local.set(p).Way(way).Replica {
		t.Error("replica displaced an authoritative line")
	}
	set := local.set(p)
	for w := 0; w < set.Ways(); w++ {
		if set.Valid(w) && set.Way(w).Replica {
			t.Error("a replica appeared in a set full of primaries")
		}
	}
	if err := s.CheckSingleCopy(); err != nil {
		t.Fatal(err)
	}
}

func TestReplicaExclusiveProbeNacksAndDies(t *testing.T) {
	s := vrSystem(t)
	cpu := s.CPUs[0]
	addr := remoteAddr(s, cpu)
	home := s.Cfg.L2.PlaceOf(addr).HomeCluster
	s.Clusters[home].install(addr, 0, false)
	s.startTxn(cpu, addr, false)
	drain(t, s)
	s.Engine.Run(2000)

	// The same CPU now writes: its local probe finds a replica, which must
	// nack and self-invalidate; ownership comes from the home cluster.
	// (SNUCA+VR sends exclusive requests straight home, so drive the
	// replica path directly.)
	p := s.Cfg.L2.PlaceOf(addr)
	local := s.Clusters[cpu.cluster]
	if _, ok := local.set(p).Lookup(p.Tag); !ok {
		t.Fatal("setup: replica missing")
	}
	s.nextTxn++
	tx := &txn{id: s.nextTxn, cpu: cpu, addr: addr, excl: true, issued: s.Engine.Now(), memCtrl: -1}
	s.txns[tx.id] = tx
	s.probe(tx, cpu.cluster)
	s.Engine.Run(50)
	if _, ok := local.set(p).Lookup(p.Tag); ok {
		t.Error("replica survived an exclusive probe")
	}
	// The transaction then proceeds (nack -> home under SNUCA rules).
	drain(t, s)
}

func TestMemoryRefillInvalidatesStaleReplicas(t *testing.T) {
	s := vrSystem(t)
	cpu := s.CPUs[0]
	addr := remoteAddr(s, cpu)
	home := s.Cfg.L2.PlaceOf(addr).HomeCluster
	s.Clusters[home].install(addr, 0, false)
	s.startTxn(cpu, addr, false)
	drain(t, s)
	s.Engine.Run(2000)

	// Evict the primary behind the replica's back.
	p := s.Cfg.L2.PlaceOf(addr)
	s.Clusters[home].set(p).Invalidate(p.Tag)
	s.lineDir.Delete(addr)

	// A write by another CPU misses everywhere and refills from memory;
	// the stale replica must be gone afterward.
	s.startTxn(s.CPUs[1], addr, true)
	drain(t, s)
	s.Engine.Run(2000)
	if s.Clusters[cpu.cluster].lookup(addr) {
		t.Error("stale replica survived a memory refill")
	}
	if err := s.CheckSingleCopy(); err != nil {
		t.Fatal(err)
	}
}

func TestReplicationEndToEnd(t *testing.T) {
	run := func(vr bool) Results {
		prof, _ := trace.ProfileByName("equake", 8) // highest shared fraction
		cfg := config.Default(config.CMPSNUCA3D)
		cfg.VictimReplication = vr
		s, err := NewSystem(cfg, prof, 9)
		if err != nil {
			t.Fatal(err)
		}
		s.Warm(9)
		s.Start()
		s.Run(50_000)
		s.ResetStats()
		s.Run(300_000)
		if err := s.CheckSingleCopy(); err != nil {
			t.Fatal(err)
		}
		if err := s.CheckReplicaConsistency(); err != nil {
			t.Fatal(err)
		}
		return s.Results()
	}
	plain, vr := run(false), run(true)
	if vr.Replications == 0 {
		t.Fatalf("replication inactive: %+v", vr)
	}
	if plain.Replications != 0 || plain.ReplicaHits != 0 {
		t.Error("plain SNUCA replicated")
	}
	if vr.ReplicaHits == 0 {
		t.Error("no replica ever re-read; window too short for reuse")
	}
	// Replication must not hurt average hit latency, and replica hits are
	// strictly local (they shift the latency distribution downward). The
	// L1 absorbs most short-term reuse, so the gain at this window size is
	// modest; require no regression plus observable replica service.
	if vr.AvgL2HitLatency > plain.AvgL2HitLatency+0.5 {
		t.Errorf("VR latency %.1f regressed vs plain %.1f",
			vr.AvgL2HitLatency, plain.AvgL2HitLatency)
	}
}
