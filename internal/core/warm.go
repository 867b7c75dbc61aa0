package core

import (
	"math/rand"
	"sort"

	"repro/internal/cache"
	"repro/internal/trace"
)

// Warm installs the steady state the paper reaches with its 500M-cycle
// cache warm-up (plus billions of fast-forward cycles), compressed into a
// direct fill so measurement windows start representative:
//
//   - each core's hot set sits in its L1 (Modified) and its local cluster;
//   - the shared region sits at its home clusters (contended lines have no
//     stable owner to migrate toward);
//   - for migrating schemes, a benchmark-dependent fraction of each core's
//     private lines has been pulled into the core's vicinity (Profile
//     .LocalizedFrac): the local cluster, then the nearest processor-free
//     clusters. On a 3D chip the vicinity holds twice the capacity (Figure
//     8's cylinder) and migration paths are half as long, so the
//     un-localized fraction squares. Lines whose home layer differs from
//     the core's stay on their own layer near the core's pillar, exactly
//     where the inter-layer migration policy (Section 4.2.3) would leave
//     them;
//   - for the static scheme every line sits at its home cluster.
//
// Warm never evicts: lines that find no free way stay uncached and fault in
// on demand. The fill is deterministic in the seed.
func (s *System) Warm(seed uint64) {
	if len(s.profs) == 0 {
		return // stream-driven system: use WarmAddresses instead
	}
	rng := rand.New(rand.NewSource(int64(seed)*2654435761 + 1))
	homeChains := s.homeChains()
	// vicinity chains depend only on (cpu, layer); memoize across the
	// millions of per-line placements.
	layers := s.Top.Dim.Layers
	vicinity := make([][]int, len(s.CPUs)*layers)
	chainFor := func(cpu, layer int) []int {
		c := &vicinity[cpu*layers+layer]
		if *c == nil {
			*c = s.vicinityChain(cpu, layer)
		}
		return *c
	}

	// Shared data and code regions at home clusters, once per distinct
	// program instance (a multiprogrammed mix has several).
	seen := map[int]bool{}
	for _, p := range s.profs {
		if seen[p.Instance] {
			continue
		}
		seen[p.Instance] = true
		code := p.CodeRegion()
		for i := 0; i < code.Len(); i++ {
			addr := code.Line(i)
			pl := s.Cfg.L2.PlaceOf(addr)
			s.warmPlace(addr, pl, homeChains[pl.HomeCluster], 0, false, -1, 0)
		}
		shared := p.SharedRegion()
		for i := 0; i < shared.Len(); i++ {
			addr := shared.Line(i)
			pl := s.Cfg.L2.PlaceOf(addr)
			s.warmPlace(addr, pl, homeChains[pl.HomeCluster], 0, false, -1, 0)
		}
	}

	// localizedFor converts a profile's 2D localization fraction to the
	// scheme's steady state.
	localizedFor := func(p trace.Profile) float64 {
		localized := p.LocalizedFrac
		switch {
		case !s.Cfg.Scheme.Migrates():
			return 0
		case s.Cfg.Scheme.Is3D():
			// Double vicinity capacity (Figure 8's cylinder), half-length
			// migration paths, and proportionally less
			// eviction-before-arrival churn: each factor multiplies a
			// remote line's chance of staying remote, cubing the
			// un-localized fraction.
			rem := 1 - localized
			return 1 - rem*rem*rem
		case s.Cfg.Scheme.PerfectSearch():
			// Edge-placed baseline: half-disc vicinity and longer
			// migration paths across the full 2D grid localize a quarter
			// as much.
			return localized * 0.25
		}
		return localized
	}

	l1iLines := s.Cfg.L1Sets * s.Cfg.L1Ways * 3 / 4
	for id, c := range s.CPUs {
		p := s.profs[id]

		// Instruction cache preload: the hot code footprint only — the
		// cold tail must stay L1I-absent so the calibrated cold-fetch
		// traffic (IFetchShare) reaches the L2 from the first cycle.
		code := p.CodeRegion()
		for i := 0; i < p.CodeLines && i < l1iLines; i++ {
			c.l1i.install(code.Line(i), false)
		}

		// Hot set: L1 Modified plus the L2 copy in the core's vicinity
		// (home cluster for the static scheme, which cannot move lines).
		hot := p.HotRegion(id)
		for i := 0; i < hot.Len(); i++ {
			addr := hot.Line(i)
			c.l1.install(addr, true)
			pl := s.Cfg.L2.PlaceOf(addr)
			chain := homeChains[pl.HomeCluster]
			if s.Cfg.Scheme.Migrates() {
				chain = chainFor(id, c.pos.Layer)
			}
			s.warmPlace(addr, pl, chain, 1<<uint(id), true, int8(id), 0)
		}

		// Private streaming region. Un-localized lines are mid-migration in
		// steady state: their counters sit one hit below the threshold, so
		// the next touch takes a migration step, reproducing the continuous
		// migration activity Figure 14 measures.
		pending := uint8(0)
		if s.Cfg.Scheme.Migrates() && s.Cfg.MigrationThreshold > 0 {
			pending = uint8(s.Cfg.MigrationThreshold - 1)
		}
		localized := localizedFor(p)
		stream := p.StreamRegion(id)
		for i := 0; i < stream.Len(); i++ {
			addr := stream.Line(i)
			pl := s.Cfg.L2.PlaceOf(addr)
			chain := homeChains[pl.HomeCluster]
			hits := pending
			if rng.Float64() < localized {
				chain = chainFor(id, s.Top.ClusterLayer(pl.HomeCluster))
				hits = 0 // settled lines are not mid-migration
			}
			s.warmPlace(addr, pl, chain, 0, false, int8(id), hits)
		}
	}
}

// WarmAddresses installs the given lines at their home clusters (with the
// scheme's spill behavior) — the warm-up path for stream-driven systems,
// whose footprints come from the trace rather than a profile.
func (s *System) WarmAddresses(addrs []cache.LineAddr) {
	homeChains := s.homeChains()
	for _, addr := range addrs {
		p := s.Cfg.L2.PlaceOf(addr)
		s.warmPlace(addr, p, homeChains[p.HomeCluster], 0, false, -1, 0)
	}
}

// homeChains returns, for each cluster h, the placement order for a line
// whose home is h: the home itself, then same-layer clusters by distance
// (processor clusters last) — the spill pattern insert-time evictions
// produce. A static NUCA can only ever look at the home cluster, so for
// non-migrating schemes the chain is the home alone: lines that do not fit
// stay uncached and contend at the home sets on demand, exactly as the real
// scheme would behave.
func (s *System) homeChains() [][]int {
	chains := make([][]int, s.Top.NumClusters())
	for h := range chains {
		if s.Cfg.Scheme.Migrates() {
			chains[h] = s.spillChain(h)
		} else {
			chains[h] = []int{h}
		}
	}
	return chains
}

// spillChain orders the clusters of a home cluster's layer for placing
// un-migrated lines: the home first, then by distance from it, preferring
// processor-free clusters — the distribution that insert-time eviction
// pressure produces around a hot home cluster.
func (s *System) spillChain(home int) []int {
	t := s.Top
	layer := t.ClusterLayer(home)
	per := t.ClustersPerLayer()
	center := t.ClusterCenter(home)
	type entry struct {
		id, dist int
		hasCPU   bool
	}
	entries := make([]entry, 0, per)
	for i := 0; i < per; i++ {
		id := layer*per + i
		entries = append(entries, entry{
			id:     id,
			dist:   center.ManhattanXY(t.ClusterCenter(id)),
			hasCPU: s.clusterCPU[id] >= 0,
		})
	}
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.id == home != (b.id == home) {
			return a.id == home
		}
		if a.hasCPU != b.hasCPU {
			return !a.hasCPU
		}
		if a.dist != b.dist {
			return a.dist < b.dist
		}
		return a.id < b.id
	})
	out := make([]int, len(entries))
	for i, e := range entries {
		out[i] = e.id
	}
	return out
}

// warmPlace installs a line, placed at p, into the first cluster in the
// preference chain with a free way, without evicting. Already-placed lines
// are left alone.
func (s *System) warmPlace(addr cache.LineAddr, p cache.Place, chain []int, sharers uint16, dirty bool, lastCPU int8, hits uint8) {
	if _, ok := s.lineDir.Get(addr); ok {
		return
	}
	for _, cl := range chain {
		set := s.Clusters[cl].set(p)
		if way, ok := set.InsertFree(p.Tag); ok {
			e := set.Way(way)
			e.Sharers = sharers
			e.Dirty = dirty
			e.LastCPU = lastCPU
			e.Hits = hits
			s.lineDir.Set(addr, cl)
			return
		}
	}
}

// vicinityChain ranks the clusters of one layer by effective hop distance
// from a CPU (through the CPU's pillar when the layer differs), excluding
// clusters that host other processors — the same exclusion the migration
// policy applies. If every cluster on the layer hosts a processor, the
// exclusion is dropped.
func (s *System) vicinityChain(cpu, layer int) []int {
	t := s.Top
	pos := t.CPUs[cpu]
	pillar := t.PillarOf(pos)
	type entry struct{ id, dist int }
	var all, free []entry
	per := t.ClustersPerLayer()
	for i := 0; i < per; i++ {
		id := layer*per + i
		center := t.ClusterCenter(id)
		var d int
		if layer == pos.Layer {
			d = pos.ManhattanXY(center)
		} else {
			d = pos.HopsVia(center, pillar)
		}
		e := entry{id, d}
		all = append(all, e)
		if owner := s.clusterCPU[id]; owner < 0 || owner == cpu {
			free = append(free, e)
		}
	}
	chain := free
	if len(chain) == 0 {
		chain = all
	}
	sort.Slice(chain, func(i, j int) bool {
		if chain[i].dist != chain[j].dist {
			return chain[i].dist < chain[j].dist
		}
		return chain[i].id < chain[j].id
	})
	out := make([]int, len(chain))
	for i, e := range chain {
		out[i] = e.id
	}
	return out
}
