package core

import (
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/digest"
	"repro/internal/dtm"
	"repro/internal/fabric"
	"repro/internal/geom"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Metrics aggregates the simulator's measurements. HitLatency is the
// paper's headline metric: request issue to data arrival for L2 hits.
type Metrics struct {
	L2Accesses    stats.Counter
	L2Hits        stats.Counter
	L2Misses      stats.Counter
	Migrations    stats.Counter
	Invalidations stats.Counter
	InvalAcks     stats.Counter
	BackInvals    stats.Counter
	Evictions     stats.Counter
	MemReads      stats.Counter
	MemWrites     stats.Counter
	ProbesSent    stats.Counter
	Step2Searches stats.Counter
	Replications  stats.Counter
	ReplicaHits   stats.Counter
	ReplicaInvals stats.Counter

	HitLatency  stats.Latency
	MissLatency stats.Latency

	// Per-address-class hit latencies: the private working sets, the
	// shared data region, and instruction (code) lines. Filled only for
	// profile-driven runs (streams carry no region information).
	PrivateHitLatency stats.Latency
	SharedHitLatency  stats.Latency
	CodeHitLatency    stats.Latency

	// HitHist buckets L2 hit latencies (4-cycle buckets up to 256 cycles)
	// for tail-latency reporting.
	HitHist *stats.Histogram
}

// Reset zeroes every metric (used to discard warm-up).
func (m *Metrics) Reset() {
	*m = Metrics{HitHist: stats.NewHistogram(64, 4)}
}

// txn is one outstanding L2 transaction: a blocking load or a background
// exclusive (store/upgrade) request.
type txn struct {
	id       uint64
	cpu      *CPU
	addr     cache.LineAddr
	excl     bool
	issued   uint64
	step     int
	pending  int
	probed   uint64 // bitmask of clusters already probed
	retries  int
	afterMem bool
	ifetch   bool // instruction fetch: fills the L1I instead of the L1D
	memCtrl  int  // controller serving the off-chip fetch; -1 before one is chosen

	// span is the transaction's component ledger when span tracing is
	// attached (nil otherwise); chain parks the memory-request attempt's
	// ledger between the controller delivery and the data reply.
	span  *obs.TxnSpan
	chain *obs.ChainSpan
}

// System is the complete simulated machine: cores, L1s, the clustered NUCA
// L2, the 3D fabric, and the off-chip memory model.
type System struct {
	Cfg    config.Config
	Top    *config.Topology
	Engine *sim.Engine
	Fab    *fabric.Fabric

	CPUs     []*CPU
	Clusters []*Cluster
	M        Metrics

	Benchmark string
	// profs holds the per-core workload profiles (all identical for a
	// parallel run, distinct for multiprogrammed mixes, empty when the
	// cores replay external trace streams).
	profs []trace.Profile

	// lineDir is the global line-location directory. The paper's CMP-DNUCA
	// baseline uses it directly ("perfect search"); the other schemes use
	// it only to preserve the single-copy invariant on the memory path.
	lineDir lineDir

	txns       map[uint64]*txn
	nextTxn    uint64
	clusterCPU []int

	// memCtrls are the chip-edge memory controller positions (layer 0).
	memCtrls []geom.Coord

	// replicas maps a line to the bitmask of clusters holding read-only
	// replicas of it (victim-replication extension).
	replicas map[cache.LineAddr]uint16

	// obsProbe, when non-nil, receives migration, MSI coherence, and
	// cache SRAM events (the network layers hold their own copy via
	// Fab.SetProbe). Nil by default. When both a tracer and the thermal
	// pipeline are attached, the probe tees into both sinks (traceSink
	// and thermalT compose through refreshProbe).
	obsProbe  *obs.Probe
	traceSink obs.Sink
	thermalT  *obs.ThermalTracker

	// dtm, when non-nil, is the attached dynamic-thermal-management
	// controller (see attachDTM): the migration, bank-access, CPU-issue,
	// and pillar-selection paths consult it, each behind a single nil
	// check so an unmanaged run pays nothing.
	dtm *dtm.Controller

	// spans, when non-nil, records per-transaction latency spans
	// (Instruments.RecordSpans). Unlike obsProbe it is not a fabric
	// probe, so a quiet network's Tick stays a no-op, and it registers no
	// tickers.
	spans *obs.SpanRecorder

	// sampler, when non-nil, is the interval metrics sampler (see
	// attachSampler).
	sampler *obs.Sampler

	// pending holds the window instruments requested before Start; the
	// next ResetStats attaches them (see Instrument).
	pending Instruments
	started bool

	// statsReg is the lazily built counter registry over the live Metrics
	// fields and fabric traffic counters; see StatsRegistry.
	statsReg *stats.Set

	// digestRec, when non-nil, is the attached state-digest recorder
	// (see attachDigest): a periodic ticker folding every subsystem into
	// per-subsystem hash chains. A pure observer — it reads simulator
	// state and writes only its own arrays — so Results (minus the
	// Digests field itself) are bit-identical with it attached.
	digestRec *digest.Recorder

	// hostProf, when non-nil, is the host-side phase profiler (see
	// AttachProfile): wall-clock attribution across the loop's phases
	// and throughput windows. Host-side only — it never influences
	// simulation state, so Results (minus the Profile field itself) are
	// bit-identical with it attached.
	hostProf *prof.Recorder

	baseCycle, baseInstr, baseFlitHops, baseBusFlits uint64
}

// NewSystem builds a machine for one configuration running one benchmark
// profile on every core. The seed makes the whole run deterministic.
func NewSystem(cfg config.Config, prof trace.Profile, seed uint64) (*System, error) {
	profs := make([]trace.Profile, cfg.NumCPUs)
	for i := range profs {
		profs[i] = prof
	}
	return NewSystemMixed(cfg, profs, seed)
}

// NewSystemMixed builds a multiprogrammed machine: core i runs profs[i].
// Each distinct profile name receives its own region namespace, so
// different programs' shared-data and code regions do not alias; cores
// running the same program share them.
func NewSystemMixed(cfg config.Config, profs []trace.Profile, seed uint64) (*System, error) {
	if len(profs) != cfg.NumCPUs {
		return nil, fmt.Errorf("core: %d profiles for %d CPUs", len(profs), cfg.NumCPUs)
	}
	instances := map[string]int{}
	names := map[string]bool{}
	var label []string
	for i := range profs {
		inst, ok := instances[profs[i].Name]
		if !ok {
			inst = len(instances)
			instances[profs[i].Name] = inst
		}
		profs[i].Instance = inst
		if !names[profs[i].Name] {
			names[profs[i].Name] = true
			label = append(label, profs[i].Name)
		}
	}
	s, err := newSystem(cfg, strings.Join(label, "+"))
	if err != nil {
		return nil, err
	}
	s.profs = profs
	for i := range s.CPUs {
		s.CPUs[i] = newCPU(s, i, trace.NewGenerator(profs[i], i, seed))
	}
	return s, nil
}

// NewSystemStreams builds a machine whose cores replay external reference
// streams (e.g. parsed trace files). Warm-up for streams goes through
// WarmAddresses, since no workload profile describes the footprint.
func NewSystemStreams(cfg config.Config, streams []trace.Stream, label string) (*System, error) {
	if len(streams) != cfg.NumCPUs {
		return nil, fmt.Errorf("core: %d streams for %d CPUs", len(streams), cfg.NumCPUs)
	}
	s, err := newSystem(cfg, label)
	if err != nil {
		return nil, err
	}
	for i := range s.CPUs {
		s.CPUs[i] = newCPU(s, i, streams[i])
	}
	return s, nil
}

// newSystem builds the machine skeleton: topology, network, clusters,
// memory controllers, and sinks. Cores are attached by the callers.
func newSystem(cfg config.Config, label string) (*System, error) {
	top, err := config.NewTopology(cfg)
	if err != nil {
		return nil, err
	}
	mode := fabric.VerticalBus
	if cfg.VerticalNoC {
		mode = fabric.VerticalRouter
	}
	s := &System{
		Cfg:       cfg,
		Top:       top,
		Engine:    sim.NewEngine(),
		Fab:       fabric.NewWithVertical(top.Dim, top.Pillars, mode),
		Benchmark: label,
		lineDir:   newLineDir(),
		txns:      make(map[uint64]*txn),
		replicas:  make(map[cache.LineAddr]uint16),
	}
	s.M.Reset()
	s.Fab.SetRouterPipeline(cfg.RouterPipeline)
	s.Engine.Register(s.Fab)
	s.clusterCPU = top.ClustersWithCPUs()
	s.memCtrls = placement.Edge(top.Dim, cfg.MemControllers)

	s.Clusters = make([]*Cluster, top.NumClusters())
	for i := range s.Clusters {
		s.Clusters[i] = newCluster(i, s)
	}
	s.CPUs = make([]*CPU, cfg.NumCPUs)
	for i := 0; i < top.Dim.Nodes(); i++ {
		s.Fab.SetSink(top.Dim.CoordOf(i), s.deliver)
	}
	return s, nil
}

// Start begins execution on every core.
func (s *System) Start() {
	for _, c := range s.CPUs {
		c.start()
	}
	s.started = true
}

// Run advances the machine by the given number of cycles.
func (s *System) Run(cycles uint64) { s.Engine.Run(cycles) }

// Close does nothing: a System holds no resources beyond memory. It stays
// so that existing callers keep compiling.
func (s *System) Close() {}

// ResetStats discards everything measured so far (warm-up) while keeping
// all architectural state, then attaches the window instruments
// requested before Start.
func (s *System) ResetStats() {
	s.M.Reset()
	s.baseCycle = s.Engine.Now()
	s.baseInstr = s.totalInstrs()
	s.baseFlitHops = s.Fab.FlitHops.Value()
	s.baseBusFlits = s.Fab.BusFlits()
	if s.spans != nil {
		s.spans.Reset()
	}
	s.attachWindow(s.pending)
	s.pending = Instruments{}
}

func (s *System) totalInstrs() uint64 {
	var n uint64
	for _, c := range s.CPUs {
		n += c.instrs
	}
	return n
}

// deliver is the single network sink: it dispatches by the message's
// addressing, so a node hosting both a CPU and a cluster controller (a CPU
// placed mid-cluster) demultiplexes correctly.
func (s *System) deliver(p *noc.Packet, cycle uint64) {
	m := p.Payload.(*Msg)
	switch {
	case m.ToMem:
		s.memRequestArrived(m, cycle)
	case m.ToCluster:
		s.Clusters[m.Cluster].handle(m)
	default:
		s.CPUs[m.CPU].handle(m, cycle)
	}
}

// send routes a protocol message into the fabric. The destination node is
// derived from the message addressing: cluster messages go to the cluster's
// controller node, CPU messages to the CPU's node.
func (s *System) send(from geom.Coord, m *Msg) {
	var dst geom.Coord
	switch {
	case m.ToMem:
		dst = s.memCtrls[m.MemCtrl]
	case m.ToCluster:
		dst = s.Top.ClusterCenter(m.Cluster)
	default:
		dst = s.CPUs[m.CPU].pos
	}
	p := s.Fab.NewPacket()
	p.Src, p.Dst, p.Size, p.Payload = from, dst, m.Kind.flits(), m
	if m.chain != nil {
		if m.Kind == msgData {
			p.Span = &m.chain.Rep
		} else {
			p.Span = &m.chain.Req
		}
	}
	s.Fab.Send(p)
	if p.Span != nil {
		// The fabric stamps InjectedAt from its own clock, which lags the
		// engine by one cycle while events (bank completions, protocol
		// steps) are firing. The span ledger tiles engine-cycle windows, so
		// restamp with the true send cycle; non-traced packets keep the
		// fabric's stamp, leaving untraced runs bit-identical.
		p.InjectedAt = s.Engine.Now()
	}
}

// startIfetch opens an instruction-fetch transaction: a read whose
// completion fills the L1 instruction cache.
func (s *System) startIfetch(c *CPU, code cache.LineAddr) {
	s.startTxn(c, code, false)
	s.txns[s.nextTxn].ifetch = true
}

// startTxn opens an L2 transaction for a core and launches the scheme's
// location strategy: perfect search for the CMP-DNUCA baseline, the static
// home-cluster lookup for CMP-SNUCA-3D, or the two-step search of Section
// 4.2.1 for the paper's dynamic schemes.
func (s *System) startTxn(c *CPU, addr cache.LineAddr, excl bool) {
	s.nextTxn++
	t := &txn{id: s.nextTxn, cpu: c, addr: addr, excl: excl, issued: s.Engine.Now(), step: 1, memCtrl: -1}
	s.txns[t.id] = t
	s.M.L2Accesses.Inc()
	if s.spans != nil {
		t.span = s.spans.Begin(t.id, c.id, t.issued)
		if !excl {
			// Loads and instruction fetches paid the L1 lookup before the
			// transaction issued (stores pay nothing up front).
			s.spans.ChargeL1(t.span, uint64(s.Cfg.L1HitCycles))
		}
	}
	switch {
	case s.Cfg.Scheme.PerfectSearch():
		if loc, ok := s.lineDir.Get(addr); ok {
			s.probe(t, loc)
		} else {
			s.memFetch(t)
		}
	case s.Cfg.Scheme == config.CMPSNUCA3D:
		home := s.Cfg.L2.PlaceOf(addr).HomeCluster
		if s.Cfg.VictimReplication && !excl && home != c.cluster {
			// SNUCA+VR reads probe the local cluster (replica check) and
			// the home cluster in parallel; a local replica answers first
			// and the duplicate home reply is dropped by the transaction
			// table.
			s.probe(t, c.cluster)
		}
		// Static NUCA: the authoritative copy is at the home cluster.
		s.probe(t, home)
	case s.Cfg.BroadcastSearch:
		// Search-policy ablation: probe every cluster at once. Finds
		// remote lines in one step at the cost of 16x probe traffic.
		for cl := 0; cl < s.Top.NumClusters(); cl++ {
			s.probe(t, cl)
		}
	default:
		s.searchStep1(t)
	}
}

// probe sends one tag probe. The requester's own cluster is reached through
// the direct CPU-to-tag-array connection (no network); all others receive a
// single-flit probe packet at their controller node.
func (s *System) probe(t *txn, cl int) {
	t.pending++
	t.probed |= 1 << uint(cl)
	s.M.ProbesSent.Inc()
	kind := msgProbeRead
	if t.excl {
		kind = msgProbeExcl
	}
	m := &Msg{Kind: kind, Txn: t.id, CPU: t.cpu.id, Cluster: cl, Addr: t.addr, ToCluster: true}
	if t.span != nil {
		// Every probe departs at the transaction span's current mark (the
		// issue cycle or a just-marked transition), so a winning chain folds
		// seamlessly onto the ledger.
		m.chain = s.spans.GetChain(s.Engine.Now())
	}
	if cl == t.cpu.cluster {
		s.Clusters[cl].serveDirect(m)
	} else {
		s.send(t.cpu.pos, m)
	}
}

// searchStep1 issues the first search step: the local cluster's tag array
// (direct), the in-layer neighboring clusters, and — through the pillar
// broadcast — the vertically neighboring clusters on other layers.
func (s *System) searchStep1(t *txn) {
	local := t.cpu.cluster
	s.probe(t, local)
	for _, nb := range s.Top.InLayerNeighbors(local) {
		s.probe(t, nb)
	}
	for _, vn := range s.Top.VerticalNeighbors(t.cpu.pos) {
		if t.probed&(1<<uint(vn)) == 0 {
			s.probe(t, vn)
		}
	}
}

// searchStep2 multicasts probes to every cluster not yet searched.
func (s *System) searchStep2(t *txn) {
	if t.span != nil {
		// The window since issue was the failed first search round.
		s.spans.Mark(t.span, obs.CompSearch1, s.Engine.Now())
	}
	t.step = 2
	s.M.Step2Searches.Inc()
	sent := false
	for cl := 0; cl < s.Top.NumClusters(); cl++ {
		if t.probed&(1<<uint(cl)) == 0 {
			s.probe(t, cl)
			sent = true
		}
	}
	if !sent {
		s.memFetch(t)
	}
}

// nack processes a tag-miss response. When the last outstanding probe of a
// step has missed, the transaction advances: step one to step two, step two
// to an off-chip fetch; the baseline retries through the location map.
func (s *System) nack(id uint64) {
	t, ok := s.txns[id]
	if !ok {
		return // transaction already completed by another copy
	}
	t.pending--
	if t.pending > 0 {
		return
	}
	switch {
	case t.afterMem:
		// The post-fetch forward chased a line that moved again.
		if t.span != nil {
			s.spans.Mark(t.span, obs.CompRetry, s.Engine.Now())
		}
		s.memArrive(t)
	case s.Cfg.Scheme.PerfectSearch():
		if loc, ok := s.lineDir.Get(t.addr); ok && t.retries < 4 {
			// The line migrated while the probe was in flight; the perfect
			// locator re-points us.
			t.retries++
			if t.span != nil {
				s.spans.Mark(t.span, obs.CompRetry, s.Engine.Now())
			}
			s.probe(t, loc)
		} else {
			s.memFetch(t)
		}
	case s.Cfg.Scheme == config.CMPSNUCA3D:
		home := s.Cfg.L2.PlaceOf(t.addr).HomeCluster
		if s.Cfg.VictimReplication && !t.excl && t.probed&(1<<uint(home)) == 0 {
			// The local replica check missed; try the home cluster.
			if t.span != nil {
				s.spans.Mark(t.span, obs.CompRetry, s.Engine.Now())
			}
			s.probe(t, home)
			return
		}
		s.memFetch(t)
	case t.step == 1:
		s.searchStep2(t)
	default:
		s.memFetch(t)
	}
}

// data completes a transaction when its line arrives at the core.
func (s *System) data(m *Msg, cycle uint64) {
	t, ok := s.txns[m.Txn]
	if !ok {
		// Duplicate reply from a lazily-migrated copy (or a replica racing
		// its home cluster); the losing attempt's ledger is discarded.
		if m.chain != nil {
			s.spans.PutChain(m.chain)
			m.chain = nil
		}
		return
	}
	delete(s.txns, m.Txn)
	lat := cycle - t.issued
	if t.span != nil {
		if m.chain != nil {
			// Fold the winning attempt; its reply leg ends right here.
			s.spans.FoldChain(t.span, m.chain, cycle)
			s.spans.PutChain(m.chain)
			m.chain = nil
		}
		if t.chain != nil {
			// A memory-request ledger superseded by a post-fetch forward.
			s.spans.PutChain(t.chain)
			t.chain = nil
		}
		s.spans.FinishTxn(t.span, lat, m.FromMemory)
		t.span = nil
	}
	if m.FromMemory {
		s.M.L2Misses.Inc()
		s.M.MissLatency.Observe(lat)
	} else {
		s.M.L2Hits.Inc()
		s.M.HitLatency.Observe(lat)
		s.M.HitHist.Observe(lat)
		s.classifyHit(t, lat)
	}
	switch {
	case t.ifetch:
		t.cpu.ifetchDone(t.addr)
	case t.excl:
		t.cpu.storeDone(t.addr)
	default:
		t.cpu.loadDone(t.addr)
	}
}

// classifyHit attributes a hit latency to the address class it served:
// shared data, code, or a private working set.
func (s *System) classifyHit(t *txn, lat uint64) {
	if len(s.profs) == 0 {
		return
	}
	p := s.profs[t.cpu.id]
	switch {
	case t.ifetch || p.CodeRegion().Contains(t.addr):
		s.M.CodeHitLatency.Observe(lat)
	case p.SharedRegion().Contains(t.addr):
		s.M.SharedHitLatency.Observe(lat)
	default:
		s.M.PrivateHitLatency.Observe(lat)
	}
}

// memFetch starts an off-chip access: a request packet travels to the
// nearest chip-edge memory controller, which pays the DRAM latency
// (Table 4: 260 cycles) and returns the line over the network.
func (s *System) memFetch(t *txn) {
	s.M.MemReads.Inc()
	t.memCtrl = s.nearestMemCtrl(t.cpu.pos)
	m := &Msg{
		Kind: msgMemReq, Txn: t.id, CPU: t.cpu.id, Addr: t.addr,
		ToMem: true, MemCtrl: t.memCtrl,
	}
	if t.span != nil {
		// Attribute the failed window that led here: a phase-2 round that
		// came up empty, a NACKed retry, or the first (and only) search
		// round. The perfect-search baseline has no search phases — its
		// failed probes are retries by definition.
		c := obs.CompSearch1
		switch {
		case t.step == 2:
			c = obs.CompSearch2
		case t.retries > 0 || s.Cfg.Scheme.PerfectSearch():
			c = obs.CompRetry
		}
		now := s.Engine.Now()
		s.spans.Mark(t.span, c, now)
		m.chain = s.spans.GetChain(now)
	}
	s.send(t.cpu.pos, m)
}

// nearestMemCtrl picks the controller with the fewest network hops from a
// node, using the node's pillar for cross-layer distance.
func (s *System) nearestMemCtrl(from geom.Coord) int {
	pillar := s.Top.PillarOf(from)
	best, bestD := 0, 1<<30
	for i, c := range s.memCtrls {
		if d := from.HopsVia(c, pillar); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// memRequestArrived runs at the controller: pay the DRAM latency, then
// complete the fetch.
func (s *System) memRequestArrived(m *Msg, cycle uint64) {
	t, ok := s.txns[m.Txn]
	if !ok {
		if m.chain != nil {
			s.spans.PutChain(m.chain)
			m.chain = nil
		}
		return // transaction completed while the request was in flight
	}
	if t.span != nil && m.chain != nil {
		// The request leg ends at the controller; park the ledger on the
		// transaction so the data reply can reuse its reply leg.
		s.spans.FoldNet(t.span, &m.chain.Req, cycle)
		m.chain.Req = obs.PacketSpan{}
		t.chain = m.chain
		m.chain = nil
	}
	s.Engine.AfterEvent(uint64(s.Cfg.MemoryCycles), s, evMemArrive, t)
}

// memArrive completes an off-chip fetch. If the line appeared in the L2
// while the fetch was in flight (a racing fill or an in-flight search that
// lost to a migration), the fill is dropped and the request forwarded to
// the resident copy — preserving the single-copy invariant. Otherwise the
// line installs at its home cluster (the placement policy: low-order tag
// bits) and the data travels from the home bank to the core.
func (s *System) memArrive(t *txn) {
	if _, live := s.txns[t.id]; !live {
		return // completed while the fetch was in flight
	}
	if loc, ok := s.lineDir.Get(t.addr); ok {
		if t.chain != nil {
			// The fill is dropped, so the memory attempt's ledger is done;
			// the forwarded probe opens its own.
			s.spans.PutChain(t.chain)
			t.chain = nil
		}
		t.afterMem = true
		s.probe(t, loc)
		return
	}
	t.afterMem = false
	home := s.Cfg.L2.PlaceOf(t.addr).HomeCluster
	cl := s.Clusters[home]
	if s.obsProbe != nil {
		c := cl.center
		s.obsProbe.Emit(obs.Event{
			Cycle: s.Engine.Now(), Kind: obs.EvCohFill,
			X: c.X, Y: c.Y, Layer: c.Layer,
			ID: uint64(t.addr), A: uint64(home),
		})
	}
	// Any surviving replicas are stale relative to the fresh fill.
	s.invalidateReplicas(t.addr, s.memCtrls[max(t.memCtrl, 0)], -1)
	cl.install(t.addr, 1<<uint(t.cpu.id), t.excl)
	// The line enters the home bank while a copy travels from the serving
	// memory controller to the requesting core (evMemData recomputes the
	// serving controller and home cluster from the transaction).
	s.Engine.AfterEvent(uint64(s.Cfg.L2BankCycles), s, evMemData, t)
}

// Results summarizes a measurement window (since the last ResetStats).
type Results struct {
	Scheme    string
	Benchmark string

	Cycles       uint64
	Instructions uint64
	IPC          float64

	L2Accesses       uint64
	L2Hits           uint64
	L2Misses         uint64
	AvgL2HitLatency  float64
	AvgL2MissLatency float64
	// Per-class mean hit latencies (0 when the class saw no hits or the
	// run is stream-driven).
	AvgPrivateHitLatency float64
	AvgSharedHitLatency  float64
	AvgCodeHitLatency    float64
	P50L2HitLatency      uint64
	P95L2HitLatency      uint64
	P99L2HitLatency      uint64

	Migrations    uint64
	Invalidations uint64
	BackInvals    uint64
	Evictions     uint64
	MemReads      uint64
	MemWrites     uint64
	ProbesSent    uint64
	Step2Searches uint64
	Replications  uint64
	ReplicaHits   uint64
	ReplicaInvals uint64
	FlitHops      uint64
	BusFlits      uint64

	// Breakdown is the per-component latency decomposition, filled only
	// when span tracing was attached (Instruments.RecordSpans); nil
	// otherwise.
	Breakdown *obs.BreakdownReport `json:",omitempty"`

	// Thermal is the run-level activity-driven thermal report, filled
	// only when the thermal pipeline was attached
	// (Instruments.ThermalInterval); nil otherwise.
	Thermal *obs.ThermalReport `json:",omitempty"`

	// DTM is the dynamic-thermal-management summary — trip engagements,
	// per-actuator counts, and their latency cost — filled only when a
	// DTM controller was attached (a managed machine with
	// Instruments.ThermalInterval); nil otherwise.
	DTM *dtm.Report `json:",omitempty"`

	// Profile is the host-side flight-recorder readout — per-phase
	// wall-clock shares, throughput windows — filled only when the
	// profiler was attached (Instruments.Profile); nil otherwise. Unlike
	// every other field it describes the simulator, not the simulated
	// chip, and is therefore host- and load-dependent: comparisons must
	// strip it first (TestProfileDoesNotPerturb does).
	Profile *prof.Report `json:",omitempty"`

	// Digests is the state-digest summary — the final run-attesting
	// digest plus per-subsystem chain values — filled only when a digest
	// recorder was attached (Instruments.DigestInterval); nil otherwise.
	// The digests describe simulator state exactly, so they are
	// themselves deterministic, but a detached run has none: bit-identity
	// comparisons against detached runs must strip the field first
	// (TestDigestDoesNotPerturb does, like Profile).
	Digests *digest.Report `json:",omitempty"`
}

// Results reads out the current measurement window.
func (s *System) Results() Results {
	cycles := s.Engine.Now() - s.baseCycle
	instrs := s.totalInstrs() - s.baseInstr
	r := Results{
		Scheme:               s.Cfg.Scheme.String(),
		Benchmark:            s.Benchmark,
		Cycles:               cycles,
		Instructions:         instrs,
		L2Accesses:           s.M.L2Accesses.Value(),
		L2Hits:               s.M.L2Hits.Value(),
		L2Misses:             s.M.L2Misses.Value(),
		AvgL2HitLatency:      s.M.HitLatency.Mean(),
		AvgL2MissLatency:     s.M.MissLatency.Mean(),
		AvgPrivateHitLatency: s.M.PrivateHitLatency.Mean(),
		AvgSharedHitLatency:  s.M.SharedHitLatency.Mean(),
		AvgCodeHitLatency:    s.M.CodeHitLatency.Mean(),
		P50L2HitLatency:      s.M.HitHist.Percentile(50),
		P95L2HitLatency:      s.M.HitHist.Percentile(95),
		P99L2HitLatency:      s.M.HitHist.Percentile(99),
		Migrations:           s.M.Migrations.Value(),
		Invalidations:        s.M.Invalidations.Value(),
		BackInvals:           s.M.BackInvals.Value(),
		Evictions:            s.M.Evictions.Value(),
		MemReads:             s.M.MemReads.Value(),
		MemWrites:            s.M.MemWrites.Value(),
		ProbesSent:           s.M.ProbesSent.Value(),
		Step2Searches:        s.M.Step2Searches.Value(),
		Replications:         s.M.Replications.Value(),
		ReplicaHits:          s.M.ReplicaHits.Value(),
		ReplicaInvals:        s.M.ReplicaInvals.Value(),
		FlitHops:             s.Fab.FlitHops.Value() - s.baseFlitHops,
		BusFlits:             s.Fab.BusFlits() - s.baseBusFlits,
	}
	if cycles > 0 {
		r.IPC = float64(instrs) / float64(cycles*uint64(s.Cfg.NumCPUs))
	}
	if s.spans != nil {
		r.Breakdown = s.spans.Report()
	}
	if s.thermalT != nil {
		r.Thermal = s.thermalT.Report()
	}
	if s.dtm != nil {
		r.DTM = s.dtm.Report()
	}
	if s.hostProf != nil {
		r.Profile = s.hostProf.Report()
	}
	if s.digestRec != nil {
		r.Digests = s.digestRec.Report()
	}
	return r
}

// CheckReplicaConsistency verifies that the replica mask matches reality:
// every masked (addr, cluster) pair has a resident Replica entry or an
// in-flight msgReplData, and every resident Replica entry is masked. Run
// on a quiescent system (tests) — in-flight replicas show as masked but
// not yet resident, so the check tolerates missing entries only when the
// network still holds traffic.
func (s *System) CheckReplicaConsistency() error {
	quiescent := s.Fab.Quiescent() && s.Engine.Pending() == 0
	for addr, mask := range s.replicas {
		if mask == 0 {
			return fmt.Errorf("core: empty replica mask retained for %#x", uint64(addr))
		}
		p := s.Cfg.L2.PlaceOf(addr)
		for cl := 0; cl < s.Top.NumClusters(); cl++ {
			if mask&(1<<uint(cl)) == 0 {
				continue
			}
			set := s.Clusters[cl].set(p)
			way, ok := set.Lookup(p.Tag)
			if !ok {
				if quiescent {
					return fmt.Errorf("core: masked replica %#x missing from cluster %d", uint64(addr), cl)
				}
				continue
			}
			if !set.Way(way).Replica {
				// The primary may legitimately live where a replica was
				// masked (migration merge); the mask must not claim it.
				return fmt.Errorf("core: mask claims primary of %#x in cluster %d", uint64(addr), cl)
			}
		}
	}
	for _, cl := range s.Clusters {
		for b, bank := range cl.banks {
			for si := 0; si < bank.NumSets(); si++ {
				set := bank.Set(si)
				for w := 0; w < set.Ways(); w++ {
					e := set.Way(w)
					if !set.Valid(w) || !e.Replica {
						continue
					}
					addr := s.Cfg.L2.LineOf(cache.Place{Bank: b, Set: si, Tag: e.Tag})
					if s.replicas[addr]&(1<<uint(cl.id)) == 0 {
						return fmt.Errorf("core: unmasked replica %#x in cluster %d", uint64(addr), cl.id)
					}
				}
			}
		}
	}
	return nil
}

// CheckSingleCopy verifies the L2-wide invariant that every authoritative
// line resides in exactly one cluster and that the line directory agrees
// with the tag arrays. Authoritative means valid, not Migrating and not a
// Replica: a Migrating entry is the old copy of a lazy migration and may
// coexist with the new one, and replicas are tracked by the replica masks.
// Every authoritative line must have a directory entry naming its cluster,
// so a second authoritative copy of a line always disagrees with the
// directory. The directory must hold nothing else, with one exception: a
// migration whose data message is still in flight has retired nothing and
// installed nothing yet, so the directory still names the Migrating old
// copy, and that is the line's only copy. It returns an error naming the
// first violating line.
func (s *System) CheckSingleCopy() error {
	authoritative, inFlight := 0, 0
	for _, cl := range s.Clusters {
		for b, bank := range cl.banks {
			for si := 0; si < bank.NumSets(); si++ {
				set := bank.Set(si)
				for w := 0; w < set.Ways(); w++ {
					e := set.Way(w)
					if !set.Valid(w) || e.Replica {
						continue
					}
					addr := s.Cfg.L2.LineOf(cache.Place{Bank: b, Set: si, Tag: e.Tag})
					loc, ok := s.lineDir.Get(addr)
					switch {
					case e.Migrating:
						if ok && loc == cl.id {
							inFlight++
						}
					case !ok:
						return fmt.Errorf("core: line %#x in cluster %d has no directory entry", uint64(addr), cl.id)
					case loc != cl.id:
						return fmt.Errorf("core: line %#x in cluster %d, directory names cluster %d", uint64(addr), cl.id, loc)
					default:
						authoritative++
					}
				}
			}
		}
	}
	if n := s.lineDir.Len(); n != authoritative+inFlight {
		return fmt.Errorf("core: directory holds %d lines, L2 holds %d authoritative and %d mid-migration",
			n, authoritative, inFlight)
	}
	return nil
}
