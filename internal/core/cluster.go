package core

import (
	"repro/internal/cache"
	"repro/internal/geom"
	"repro/internal/obs"
)

// Cluster is one L2 cluster: a tile of banks, the cluster's tag array, the
// co-located directory slice, and the controller logic block (Section 4.1).
// The controller sits at the tile's central node; banks occupy the tile.
// Tag lookups cost TagCycles and bank accesses BankCycles (Table 4);
// network distance to and from the banks is paid in real packet hops.
type Cluster struct {
	id     int
	sys    *System
	banks  []*cache.Bank
	center geom.Coord

	// portFree holds, per tag-array port, the cycle the port becomes
	// available; empty when lookups are unlimited (Config.TagPorts == 0).
	portFree []uint64

	// TagLookups counts tag-array activations (for the power model);
	// TagPortWait accumulates cycles probes spent waiting for a port.
	TagLookups  uint64
	TagPortWait uint64
}

func newCluster(id int, sys *System) *Cluster {
	g := sys.Cfg.L2
	cl := &Cluster{
		id:     id,
		sys:    sys,
		banks:  make([]*cache.Bank, g.BanksPerCluster),
		center: sys.Top.ClusterCenter(id),
	}
	for i := range cl.banks {
		cl.banks[i] = cache.NewBank(g.SetsPerBank, g.Ways)
	}
	if sys.Cfg.TagPorts > 0 {
		cl.portFree = make([]uint64, sys.Cfg.TagPorts)
	}
	return cl
}

// tagDelay returns how long a lookup arriving now must wait before its
// TagCycles access completes, claiming a tag-array port when they are
// bounded.
func (cl *Cluster) tagDelay() uint64 {
	lat := uint64(cl.sys.Cfg.TagCycles)
	if cl.portFree == nil {
		return lat
	}
	now := cl.sys.Engine.Now()
	best := 0
	for i := 1; i < len(cl.portFree); i++ {
		if cl.portFree[i] < cl.portFree[best] {
			best = i
		}
	}
	start := now
	if cl.portFree[best] > now {
		start = cl.portFree[best]
		cl.TagPortWait += start - now
	}
	cl.portFree[best] = start + lat
	return start - now + lat
}

// set returns the associative set a line maps to within this cluster.
func (cl *Cluster) set(p cache.Place) *cache.Set {
	return cl.banks[p.Bank].Set(p.Set)
}

// bankDelay returns the access latency of the given bank: the Table 4
// L2BankCycles, plus the drowsy wakeup when an attached DTM controller
// holds the bank's cell in the drowsy retention state. Unmanaged runs
// pay one nil check.
func (cl *Cluster) bankDelay(bank int) uint64 {
	d := uint64(cl.sys.Cfg.L2BankCycles)
	if cl.sys.dtm != nil {
		d += cl.sys.dtm.BankWakeup(cl.sys.Top.BankCoord(cl.id, bank))
	}
	return d
}

// handle dispatches a cluster-addressed message that arrived over the
// network.
func (cl *Cluster) handle(m *Msg) {
	s := cl.sys
	switch m.Kind {
	case msgProbeRead, msgProbeExcl:
		// Tag array lookup latency (plus any wait for a port), then service.
		d := cl.tagDelay()
		if m.chain != nil {
			m.chain.Tag = d
		}
		s.Engine.AfterEvent(d, s, evClusterServe, m)
	case msgMigData:
		s.Engine.AfterEvent(cl.bankDelay(s.Cfg.L2.PlaceOf(m.Addr).Bank), s, evClusterMigData, m)
	case msgMigInval:
		s.Engine.AfterEvent(uint64(s.Cfg.TagCycles), s, evClusterMigInval, m)
	case msgReplData:
		s.Engine.AfterEvent(cl.bankDelay(s.Cfg.L2.PlaceOf(m.Addr).Bank), s, evClusterReplData, m)
	case msgReplInval:
		s.Engine.AfterEvent(uint64(s.Cfg.TagCycles), s, evClusterReplInval, m)
	case msgInvalAck:
		cl.sys.M.InvalAcks.Inc()
	default:
		panic("core: cluster received " + m.Kind.String())
	}
}

// serveDirect performs the local-processor path: the cluster's tag array
// has a direct connection to its local CPU (Section 4.1), so the lookup
// costs TagCycles with no network traversal; only the data reply (from the
// bank) rides the network.
func (cl *Cluster) serveDirect(m *Msg) {
	d := cl.tagDelay()
	if m.chain != nil {
		m.chain.Tag = d
	}
	cl.sys.Engine.AfterEvent(d, cl.sys, evClusterServeDirect, m)
}

// serve performs the tag lookup and, on a hit, the directory actions, the
// migration-policy update, and the data reply. On a miss a nack returns to
// the requester (directly for the local tag array, over the network
// otherwise).
func (cl *Cluster) serve(m *Msg, direct bool) {
	s := cl.sys
	cl.TagLookups++
	if s.obsProbe != nil {
		s.obsProbe.Emit(obs.Event{
			Cycle: s.Engine.Now(), Kind: obs.EvTagProbe,
			X: cl.center.X, Y: cl.center.Y, Layer: cl.center.Layer,
			ID: uint64(m.Addr), A: uint64(cl.id),
		})
	}
	p := s.Cfg.L2.PlaceOf(m.Addr)
	set := cl.set(p)
	way, ok := set.Lookup(p.Tag)
	if !ok {
		cl.nackProbe(m, direct)
		return
	}

	e := set.Way(way)
	set.Touch(way)
	bank := cl.banks[p.Bank]
	if m.Kind == msgProbeExcl {
		if e.Replica {
			// Replicas are read-only: drop this copy and report a miss;
			// the authoritative copy grants ownership.
			s.replicas[m.Addr] &^= 1 << uint(cl.id)
			s.cleanReplicaMask(m.Addr)
			s.dropReplicaL1Sharers(m.Addr, cl, *e)
			set.Invalidate(p.Tag)
			cl.nackProbe(m, direct)
			return
		}
		bank.Writes++
		cl.emitBank(obs.EvBankWrite, p.Bank, m.Addr)
		cl.invalidateSharers(e, m.Addr, m.CPU)
		s.invalidateReplicas(m.Addr, cl.center, -1)
		e.Sharers = 1 << uint(m.CPU)
		e.Dirty = true
		if s.obsProbe != nil {
			s.obsProbe.Emit(obs.Event{
				Cycle: s.Engine.Now(), Kind: obs.EvCohUpgrade,
				X: cl.center.X, Y: cl.center.Y, Layer: cl.center.Layer,
				ID: uint64(m.Addr), A: uint64(m.CPU),
			})
		}
	} else {
		bank.Reads++
		cl.emitBank(obs.EvBankRead, p.Bank, m.Addr)
		e.Sharers |= 1 << uint(m.CPU)
		if e.Replica {
			s.M.ReplicaHits.Inc()
		} else {
			s.maybeReplicate(cl, m.Addr, e, m.CPU)
		}
	}
	if !e.Replica {
		s.maybeMigrate(cl, m.Addr, p, e, m.CPU)
	}

	// The probe is terminal on a hit: reuse it, mutated in place, as the
	// data reply instead of allocating a fresh Msg. The reply is sent from
	// the serving bank's node once the bank access completes.
	m.Kind = msgData
	m.Cluster = cl.id
	m.ToCluster = false
	// The bank delay includes any DTM drowsy wakeup, so the span ledger's
	// bank component covers the real service time.
	d := cl.bankDelay(p.Bank)
	if m.chain != nil {
		m.chain.Bank = d
	}
	s.Engine.AfterEvent(d, s, evClusterDataReply, m)
}

// nackProbe reports a tag miss back to the requester: directly into the
// transaction table for the local tag array, or as a msgNack over the
// network, reusing the terminal probe Msg as the reply.
func (cl *Cluster) nackProbe(m *Msg, direct bool) {
	if m.chain != nil {
		// The attempt lost; the NACK reply carries no ledger.
		cl.sys.spans.PutChain(m.chain)
		m.chain = nil
	}
	if direct {
		cl.sys.nack(m.Txn)
		return
	}
	m.Kind = msgNack
	m.Cluster = cl.id
	m.ToCluster = false
	cl.sys.send(cl.center, m)
}

// invalidateSharers sends directory invalidations to every L1 holding the
// line except the new owner.
func (cl *Cluster) invalidateSharers(e *cache.Entry, addr cache.LineAddr, owner int) {
	for c := range cl.sys.CPUs {
		if c == owner || e.Sharers&(1<<uint(c)) == 0 {
			continue
		}
		cl.sys.M.Invalidations.Inc()
		if cl.sys.obsProbe != nil {
			cl.sys.obsProbe.Emit(obs.Event{
				Cycle: cl.sys.Engine.Now(), Kind: obs.EvCohInval,
				X: cl.center.X, Y: cl.center.Y, Layer: cl.center.Layer,
				ID: uint64(addr), A: uint64(c),
			})
		}
		cl.sys.send(cl.center, &Msg{Kind: msgInval, CPU: c, Cluster: cl.id, Addr: addr})
	}
}

// lookup reports whether the cluster currently holds the line.
func (cl *Cluster) lookup(addr cache.LineAddr) bool {
	p := cl.sys.Cfg.L2.PlaceOf(addr)
	_, ok := cl.set(p).Lookup(p.Tag)
	return ok
}

// install fills a line into this cluster (memory fetch or duplicate-free
// re-insertion), handling the eviction of the displaced victim: the global
// location map is updated, L1 sharers of the victim receive
// back-invalidations, and dirty victims count a memory writeback.
func (cl *Cluster) install(addr cache.LineAddr, sharers uint16, dirty bool) {
	s := cl.sys
	p := s.Cfg.L2.PlaceOf(addr)
	set := cl.set(p)
	if way, ok := set.Lookup(p.Tag); ok {
		// Already present (racing fill, or a replica that now becomes the
		// authoritative copy): merge directory state and claim primacy.
		e := set.Way(way)
		e.Sharers |= sharers
		e.Dirty = e.Dirty || dirty
		if e.Replica {
			e.Replica = false
			s.replicas[addr] &^= 1 << uint(cl.id)
			s.cleanReplicaMask(addr)
		}
		s.lineDir.Set(addr, cl.id)
		return
	}
	way, victim, evicted := set.Insert(p.Tag)
	if evicted {
		cl.evict(p, victim)
	}
	e := set.Way(way)
	e.Sharers = sharers
	e.Dirty = dirty
	cl.banks[p.Bank].Writes++
	cl.emitBank(obs.EvBankWrite, p.Bank, addr)
	s.lineDir.Set(addr, cl.id)
}

// emitBank reports a bank SRAM access (EvBankRead or EvBankWrite) to the
// attached probe at the bank's own cell — the energy accountant charges
// the access where the SRAM physically sits, not at the cluster's tag
// node. No-op when detached.
func (cl *Cluster) emitBank(kind obs.Kind, bank int, addr cache.LineAddr) {
	s := cl.sys
	if s.obsProbe == nil {
		return
	}
	c := s.Top.BankCoord(cl.id, bank)
	s.obsProbe.Emit(obs.Event{
		Cycle: s.Engine.Now(), Kind: kind,
		X: c.X, Y: c.Y, Layer: c.Layer,
		ID: uint64(addr), A: uint64(cl.id), B: uint64(bank),
	})
}

// evict completes the removal of a victim entry: location map cleanup,
// back-invalidation of L1 sharers, and the dirty writeback count.
func (cl *Cluster) evict(p cache.Place, victim cache.Entry) {
	s := cl.sys
	s.M.Evictions.Inc()
	victimAddr := s.Cfg.L2.LineOf(cache.Place{Bank: p.Bank, Set: p.Set, Tag: victim.Tag})
	if victim.Replica {
		s.dropReplicaState(victimAddr, cl.id, victim)
		return
	}
	if loc, ok := s.lineDir.Get(victimAddr); ok && loc == cl.id {
		s.lineDir.Delete(victimAddr)
	}
	if victim.Dirty {
		s.M.MemWrites.Inc()
		if s.obsProbe != nil {
			s.obsProbe.Emit(obs.Event{
				Cycle: s.Engine.Now(), Kind: obs.EvCohWriteback,
				X: cl.center.X, Y: cl.center.Y, Layer: cl.center.Layer,
				ID: uint64(victimAddr), A: uint64(cl.id),
			})
		}
	}
	for c := range s.CPUs {
		if victim.Sharers&(1<<uint(c)) == 0 {
			continue
		}
		s.M.BackInvals.Inc()
		if s.obsProbe != nil {
			s.obsProbe.Emit(obs.Event{
				Cycle: s.Engine.Now(), Kind: obs.EvCohBackInval,
				X: cl.center.X, Y: cl.center.Y, Layer: cl.center.Layer,
				ID: uint64(victimAddr), A: uint64(c),
			})
		}
		s.send(cl.center, &Msg{Kind: msgInval, CPU: c, Cluster: cl.id, Addr: victimAddr})
	}
}

// finishMigration installs an arriving migrated line and retires the old
// copy (lazy migration: the old cluster stays hittable until the MigInval
// lands there).
func (cl *Cluster) finishMigration(m *Msg) {
	s := cl.sys
	cl.install(m.Addr, m.Sharers, m.Dirty)
	s.send(cl.center, &Msg{
		Kind: msgMigInval, Cluster: m.Origin, Addr: m.Addr, ToCluster: true,
	})
}

// retireOldCopy drops the stale copy left behind by a completed migration.
func (cl *Cluster) retireOldCopy(m *Msg) {
	p := cl.sys.Cfg.L2.PlaceOf(m.Addr)
	cl.set(p).Invalidate(p.Tag)
}
