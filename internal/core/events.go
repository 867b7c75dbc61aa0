package core

import "repro/internal/obs"

// Typed event kinds for the engine's allocation-free scheduling path
// (sim.Engine.AfterEvent). Every fixed-latency completion on the simulator's
// hot path — tag lookups, bank accesses, memory fetches, CPU pipeline
// delays — used to capture a closure per scheduled event; they are now a
// (kind, payload-pointer) pair dispatched by System.HandleEvent. The payload
// is always a live pointer (*Msg, *CPU, *txn), so storing it in the event's
// interface field does not allocate.
const (
	// evClusterServe serves a network tag probe after the tag-array delay.
	// Data: *Msg (the probe; Msg.Cluster is the serving cluster).
	evClusterServe uint8 = iota
	// evClusterServeDirect serves a local-CPU probe through the direct
	// tag-array connection. Data: *Msg.
	evClusterServeDirect
	// evClusterMigData installs a migrated line after the bank write.
	// Data: *Msg.
	evClusterMigData
	// evClusterMigInval retires a lazily-migrated old copy after the tag
	// access. Data: *Msg.
	evClusterMigInval
	// evClusterReplData installs a replica after the bank write. Data: *Msg.
	evClusterReplData
	// evClusterReplInval drops a replica after the tag access. Data: *Msg.
	evClusterReplInval
	// evClusterDataReply sends the data reply from the serving bank once the
	// bank access completes. Data: *Msg — the original probe, mutated in
	// place into the msgData reply (the probe is terminal once it hits).
	evClusterDataReply
	// evCPUStep resumes a core's fetch-execute loop. Data: *CPU.
	evCPUStep
	// evCPUAccess performs the reference in CPU.pendingRef after its
	// leading non-memory instructions. Data: *CPU.
	evCPUAccess
	// evCPUIfetch opens the instruction-fetch transaction for the stalled
	// reference after the L1I lookup. Data: *CPU.
	evCPUIfetch
	// evCPUData performs the data access of the reference that was stalled
	// behind an ifetch miss. Data: *CPU (reference in CPU.pendingRef).
	evCPUData
	// evCPULoadMiss opens the L2 read transaction for a load that missed
	// the L1. Data: *CPU (reference in CPU.pendingRef).
	evCPULoadMiss
	// evMemArrive completes an off-chip fetch after the DRAM latency.
	// Data: *txn.
	evMemArrive
	// evMemData sends the fetched line from the serving memory controller
	// once the home bank's fill completes. Data: *txn.
	evMemData
)

// HandleEvent dispatches the typed events scheduled by the protocol and
// core models. It implements sim.Handler.
func (s *System) HandleEvent(kind uint8, data any) {
	switch kind {
	case evClusterServe:
		m := data.(*Msg)
		s.Clusters[m.Cluster].serve(m, false)
	case evClusterServeDirect:
		m := data.(*Msg)
		s.Clusters[m.Cluster].serve(m, true)
	case evClusterMigData:
		m := data.(*Msg)
		s.Clusters[m.Cluster].finishMigration(m)
	case evClusterMigInval:
		m := data.(*Msg)
		s.Clusters[m.Cluster].retireOldCopy(m)
	case evClusterReplData:
		m := data.(*Msg)
		s.Clusters[m.Cluster].installReplica(m)
	case evClusterReplInval:
		m := data.(*Msg)
		s.Clusters[m.Cluster].dropReplica(m)
	case evClusterDataReply:
		m := data.(*Msg)
		p := s.Cfg.L2.PlaceOf(m.Addr)
		s.send(s.Top.BankCoord(m.Cluster, p.Bank), m)
	case evCPUStep:
		data.(*CPU).step()
	case evCPUAccess:
		c := data.(*CPU)
		c.access(&c.pendingRef)
	case evCPUIfetch:
		c := data.(*CPU)
		s.startIfetch(c, c.stalledRef.Code)
	case evCPUData:
		c := data.(*CPU)
		c.dataAccess(&c.pendingRef)
	case evCPULoadMiss:
		c := data.(*CPU)
		s.startTxn(c, c.pendingRef.Addr, false)
	case evMemArrive:
		t := data.(*txn)
		if t.span != nil {
			if _, live := s.txns[t.id]; live {
				s.spans.Mark(t.span, obs.CompDram, s.Engine.Now())
			}
		}
		s.memArrive(t)
	case evMemData:
		t := data.(*txn)
		from := t.cpu.pos
		if t.memCtrl >= 0 {
			from = s.memCtrls[t.memCtrl]
		}
		home := s.Cfg.L2.PlaceOf(t.addr).HomeCluster
		m := &Msg{
			Kind: msgData, Txn: t.id, CPU: t.cpu.id, Cluster: home,
			Addr: t.addr, FromMemory: true,
		}
		if t.span != nil {
			if _, live := s.txns[t.id]; live {
				now := s.Engine.Now()
				s.spans.Mark(t.span, obs.CompBank, now)
				// Reuse the parked memory-request ledger for the reply leg
				// (a post-fetch forward may have released it; open a fresh
				// one then).
				if t.chain == nil {
					t.chain = s.spans.GetChain(now)
				}
				t.chain.SentAt = now
				m.chain = t.chain
				t.chain = nil
			}
		}
		s.send(from, m)
	default:
		panic("core: unknown event kind")
	}
}
