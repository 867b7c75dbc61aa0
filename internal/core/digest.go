package core

import (
	"repro/internal/cache"
	"repro/internal/digest"
	"repro/internal/stats"
	"repro/internal/trace"
)

// digestFolder is satisfied by trace sources that expose their internal
// cursor state for digesting (trace.Generator, trace.FileStream).
// External Stream implementations without it simply contribute nothing
// to the RNG lane — their replay position is implied by the CPU
// counters anyway.
type digestFolder interface{ DigestFold(*digest.Recorder) }

// attachDigest registers a periodic state-digest recorder with the
// engine: every interval cycles it folds every stateful subsystem into
// per-subsystem hash chains and appends one cumulative snapshot (see
// package digest). Results gains the Digests report.
//
// The recorder is a pure observer — the walker reads simulator state
// and writes only recorder-owned arrays — so an attached run is
// bit-identical to a detached one (TestDigestDoesNotPerturb).
func (s *System) attachDigest(interval uint64) {
	s.digestRec = digest.NewRecorder(interval)
	s.digestRec.SetWalker(s.digestWalk)
	s.Engine.Register(s.digestRec)
}

// digestWalk folds the whole machine, one lane per subsystem, in lane
// order. Map-backed state (line locations, transaction table, replica
// masks) folds order-independently: each entry hashes through its own
// Mix chain and the per-entry hashes XOR together, so Go's randomized
// map iteration cannot perturb the digest.
func (s *System) digestWalk(r *digest.Recorder) {
	r.BeginLane(digest.LaneCPU)
	for _, c := range s.CPUs {
		r.Fold(c.instrs)
		r.Fold(c.loads)
		r.Fold(c.stores)
		r.Fold(c.ifetches)
		r.Fold(c.ifetchMisses)
		r.FoldInt(c.storeCredits)
		foldRef(r, &c.blockedStore)
		r.FoldBool(c.hasBlocked)
		foldRef(r, &c.stalledRef)
		r.FoldBool(c.hasStalled)
		foldRef(r, &c.pendingRef)
		r.FoldBool(c.running)
		r.Fold(c.l1.Hits)
		r.Fold(c.l1.Misses)
		c.l1.tags.DigestFold(r)
		r.Fold(c.l1i.Hits)
		r.Fold(c.l1i.Misses)
		c.l1i.tags.DigestFold(r)
	}

	r.BeginLane(digest.LaneCache)
	for _, cl := range s.Clusters {
		for _, b := range cl.banks {
			b.DigestFold(r)
		}
		for _, p := range cl.portFree {
			r.Fold(p)
		}
		r.Fold(cl.TagLookups)
		r.Fold(cl.TagPortWait)
	}
	s.foldMetrics(r)
	s.foldDirectory(r)

	r.BeginLane(digest.LaneNoC)
	s.Fab.DigestFold(r)

	r.BeginLane(digest.LaneDTDMA)
	for _, b := range s.Fab.Buses() {
		b.DigestFold(r)
	}

	r.BeginLane(digest.LaneEngine)
	s.Engine.DigestFold(r)

	r.BeginLane(digest.LaneThermal)
	if s.thermalT != nil {
		s.thermalT.Grid().DigestFold(r)
	}

	r.BeginLane(digest.LaneDTM)
	if s.dtm != nil {
		s.dtm.DigestFold(r)
	}

	r.BeginLane(digest.LaneRNG)
	for _, c := range s.CPUs {
		if df, ok := c.gen.(digestFolder); ok {
			df.DigestFold(r)
		}
	}
}

// foldMetrics folds the measurement counters. They are observational,
// but they feed Results — folding them makes the cache lane catch a
// divergence even when it first manifests as a miscounted event rather
// than corrupted architectural state.
func (s *System) foldMetrics(r *digest.Recorder) {
	m := &s.M
	for _, c := range []*stats.Counter{
		&m.L2Accesses, &m.L2Hits, &m.L2Misses, &m.Migrations,
		&m.Invalidations, &m.InvalAcks, &m.BackInvals, &m.Evictions,
		&m.MemReads, &m.MemWrites, &m.ProbesSent, &m.Step2Searches,
		&m.Replications, &m.ReplicaHits, &m.ReplicaInvals,
	} {
		r.Fold(c.Value())
	}
	for _, l := range []*stats.Latency{
		&m.HitLatency, &m.MissLatency,
		&m.PrivateHitLatency, &m.SharedHitLatency, &m.CodeHitLatency,
	} {
		r.Fold(l.Count())
		r.Fold(l.Sum())
		r.Fold(l.Min())
		r.Fold(l.Max())
	}
	h := m.HitHist
	r.Fold(h.Total())
	r.Fold(h.Max())
	for i := 0; i < h.NumBuckets(); i++ {
		r.Fold(h.Bucket(i))
	}
}

// foldDirectory folds the MSI directory's map-backed state: the line
// location directory, the in-flight transaction table, and the replica
// masks. The line directory folds the same (addr, cluster) pairs a flat
// map of lines would, so its paged layout does not show in the digest.
func (s *System) foldDirectory(r *digest.Recorder) {
	var x uint64
	s.lineDir.Walk(func(addr cache.LineAddr, loc int) {
		x ^= digest.Mixed(digest.Mix(uint64(addr)), uint64(loc))
	})
	r.Fold(x)
	r.FoldInt(s.lineDir.Len())

	x = 0
	for id, t := range s.txns {
		h := digest.Mix(id)
		h = digest.Mixed(h, uint64(t.cpu.id))
		h = digest.Mixed(h, uint64(t.addr))
		h = digest.Mixed(h, b2u(t.excl))
		h = digest.Mixed(h, t.issued)
		h = digest.Mixed(h, uint64(t.step))
		h = digest.Mixed(h, uint64(t.pending))
		h = digest.Mixed(h, t.probed)
		h = digest.Mixed(h, uint64(t.retries))
		h = digest.Mixed(h, b2u(t.afterMem))
		h = digest.Mixed(h, b2u(t.ifetch))
		x ^= digest.Mixed(h, uint64(t.memCtrl))
	}
	r.Fold(x)
	r.FoldInt(len(s.txns))
	r.Fold(s.nextTxn)

	x = 0
	for addr, mask := range s.replicas {
		h := digest.Mix(uint64(addr))
		x ^= digest.Mixed(h, uint64(mask))
	}
	r.Fold(x)
	r.FoldInt(len(s.replicas))
}

func foldRef(r *digest.Recorder, ref *trace.Ref) {
	r.Fold(uint64(ref.Addr))
	r.FoldBool(ref.Write)
	r.FoldInt(ref.Gap)
	r.FoldBool(ref.HasCode)
	r.Fold(uint64(ref.Code))
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
