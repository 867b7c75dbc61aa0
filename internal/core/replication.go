package core

import (
	"repro/internal/cache"
	"repro/internal/geom"
	"repro/internal/obs"
)

// Victim replication (the replication-based management alternative of
// Section 2.1, after Zhang & Asanovic): a remote read hit leaves a
// read-only replica of the line in the requesting core's local cluster, so
// repeated reads become local. Replicas obey three rules:
//
//  1. capacity: a replica may displace only an invalid way or another
//     replica, never an authoritative line;
//  2. coherence: any write (read-for-ownership or upgrade) invalidates
//     every replica before the primary grants ownership, and so does a
//     fresh install from memory;
//  3. identity: the global location map tracks only the primary; the
//     replica mask is separate bookkeeping.
//
// Replicas serve read probes like any resident line (the existing
// transaction table already deduplicates multiple data replies), and they
// nack-and-die on exclusive probes.

// maybeReplicate runs after a remote read hit: push a replica toward the
// requester's local cluster unless one is already there (or being sent).
func (s *System) maybeReplicate(cl *Cluster, addr cache.LineAddr, e *cache.Entry, cpu int) {
	if !s.Cfg.VictimReplication || e.Migrating {
		return
	}
	local := s.CPUs[cpu].cluster
	if local == cl.id {
		return
	}
	if loc, ok := s.lineDir.Get(addr); ok && loc == local {
		return // the primary itself lives in the requester's cluster
	}
	bit := uint16(1) << uint(local)
	if s.replicas[addr]&bit != 0 {
		return // already replicated (or replica in flight)
	}
	s.replicas[addr] |= bit
	s.M.Replications.Inc()
	p := s.Cfg.L2.PlaceOf(addr)
	s.send(s.Top.BankCoord(cl.id, p.Bank), &Msg{
		Kind: msgReplData, Cluster: local, Origin: cl.id, Addr: addr, ToCluster: true,
	})
}

// installReplica handles an arriving msgReplData at the requester's local
// cluster.
func (cl *Cluster) installReplica(m *Msg) {
	s := cl.sys
	bit := uint16(1) << uint(cl.id)
	p := s.Cfg.L2.PlaceOf(m.Addr)
	set := cl.set(p)
	if _, ok := set.Lookup(p.Tag); ok {
		// The line arrived here by other means (migration or a racing
		// fill); the replica is redundant.
		s.replicas[m.Addr] &^= bit
		s.cleanReplicaMask(m.Addr)
		return
	}
	_, displaced, hadDisplaced, ok := set.InsertReplica(p.Tag)
	if !ok {
		// Every way holds an authoritative line; replication loses.
		s.replicas[m.Addr] &^= bit
		s.cleanReplicaMask(m.Addr)
		return
	}
	if hadDisplaced && displaced.Replica {
		old := s.Cfg.L2.LineOf(cache.Place{Bank: p.Bank, Set: p.Set, Tag: displaced.Tag})
		s.dropReplicaState(old, cl.id, displaced)
	}
	cl.banks[p.Bank].Writes++
	cl.emitBank(obs.EvBankWrite, p.Bank, m.Addr)
}

// invalidateReplicas sends drop messages to every cluster holding a replica
// of addr, except the given cluster (-1 for none). Called by the primary on
// exclusive access and by the memory path before a fresh install.
func (s *System) invalidateReplicas(addr cache.LineAddr, from geom.Coord, except int) {
	mask := s.replicas[addr]
	if mask == 0 {
		return
	}
	for cl := 0; cl < s.Top.NumClusters(); cl++ {
		if mask&(1<<uint(cl)) == 0 || cl == except {
			continue
		}
		s.M.ReplicaInvals.Inc()
		s.send(from, &Msg{Kind: msgReplInval, Cluster: cl, Addr: addr, ToCluster: true})
	}
	if except >= 0 {
		s.replicas[addr] = mask & (1 << uint(except))
	} else {
		delete(s.replicas, addr)
	}
}

// dropReplica handles an arriving msgReplInval: remove the local replica
// and invalidate the L1s that read through it.
func (cl *Cluster) dropReplica(m *Msg) {
	s := cl.sys
	p := s.Cfg.L2.PlaceOf(m.Addr)
	set := cl.set(p)
	way, ok := set.Lookup(p.Tag)
	if !ok {
		return
	}
	e := set.Way(way)
	if !e.Replica {
		return // the primary migrated here meanwhile; leave it alone
	}
	s.dropReplicaL1Sharers(m.Addr, cl, *e)
	set.Invalidate(p.Tag)
}

// dropReplicaState clears bookkeeping for a replica displaced by another
// replica's insertion, including its L1 sharers.
func (s *System) dropReplicaState(addr cache.LineAddr, cluster int, e cache.Entry) {
	s.replicas[addr] &^= 1 << uint(cluster)
	s.cleanReplicaMask(addr)
	s.dropReplicaL1Sharers(addr, s.Clusters[cluster], e)
}

// dropReplicaL1Sharers back-invalidates L1 copies served through a replica.
func (s *System) dropReplicaL1Sharers(addr cache.LineAddr, cl *Cluster, e cache.Entry) {
	for c := range s.CPUs {
		if e.Sharers&(1<<uint(c)) == 0 {
			continue
		}
		s.M.BackInvals.Inc()
		s.send(cl.center, &Msg{Kind: msgInval, CPU: c, Cluster: cl.id, Addr: addr})
	}
}

// cleanReplicaMask removes empty mask entries to keep the map compact.
func (s *System) cleanReplicaMask(addr cache.LineAddr) {
	if s.replicas[addr] == 0 {
		delete(s.replicas, addr)
	}
}
