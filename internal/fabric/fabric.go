// Package fabric assembles the complete 3D Network-in-Memory interconnect:
// one wormhole mesh per device layer (package noc), joined by dTDMA bus
// pillars (package dtdma) at designated in-plane positions. It owns packet
// injection, pillar selection, routing, and delivery callbacks, and is the
// single sim.Ticker for the whole network.
package fabric

import (
	"fmt"

	"repro/internal/dtdma"
	"repro/internal/geom"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/stats"
)

// VerticalMode selects how packets cross device layers.
type VerticalMode int

const (
	// VerticalBus is the paper's design: a single-hop dTDMA bus pillar.
	VerticalBus VerticalMode = iota
	// VerticalRouter is the rejected alternative the paper evaluates in
	// Section 3.1: 7-port routers at the pillar positions connected
	// hop-by-hop through the stack. Crossing n layers costs n router
	// traversals and contends with in-plane traffic at every intermediate
	// router.
	VerticalRouter
)

// Fabric is the 3D interconnect: dim.Layers stacked meshes of
// dim.Width x dim.Height routers plus one dTDMA bus per pillar position
// (or 7-port router columns in the VerticalRouter ablation).
type Fabric struct {
	dim     geom.Dim
	mode    VerticalMode
	routers []*noc.Router
	pillars []geom.Coord // in-plane positions, Layer = 0
	buses   []*dtdma.Bus

	nextID uint64
	now    uint64

	// activeList/activeFlag track routers holding work, so Tick visits
	// only busy routers instead of the whole chip. busyBuses counts pillar
	// buses holding pending flits (maintained by bus edge hooks); together
	// they make Quiescent and Idle O(1).
	activeList []int
	activeFlag []bool
	busyBuses  int

	// pool recycles protocol packets: NewPacket draws from it and the
	// ejection sink returns pool-origin packets after the delivery callback,
	// so steady-state traffic allocates no Packet objects.
	pool noc.PacketPool

	// Delivered counts packets ejected at their destination; FlitHops
	// accumulates per-flit link traversals for energy accounting.
	Delivered stats.Counter
	FlitHops  stats.Counter
	// PktLatency accumulates end-to-end packet latencies (injection to
	// tail ejection) across all traffic.
	PktLatency stats.Latency

	// probe, when non-nil, receives packet inject/eject events; SetProbe
	// also fans it out to every router and pillar bus.
	probe *obs.Probe

	// pillarPenalty, when non-nil, biases pillar selection: BestPillar
	// adds its value (extra apparent hops for the column at the given
	// in-plane position) to each candidate's distance. pillarDiverted,
	// when non-nil, is invoked whenever the bias changes the chosen
	// pillar — the DTM reroute actuator's engagement count.
	pillarPenalty  func(x, y int) int
	pillarDiverted func()
}

// New builds the fabric. pillars lists the in-plane pillar positions; each
// position receives one bus spanning all layers, and the router at that
// position on every layer becomes a 6-port gateway router. With a single
// layer, pillar positions are recorded (for placement symmetry) but no
// buses are created — the topology degenerates to the paper's 2D scheme.
func New(dim geom.Dim, pillars []geom.Coord) *Fabric {
	return NewWithVertical(dim, pillars, VerticalBus)
}

// NewWithVertical builds the fabric with an explicit vertical interconnect
// mode; see VerticalMode.
func NewWithVertical(dim geom.Dim, pillars []geom.Coord, mode VerticalMode) *Fabric {
	if dim.Width < 1 || dim.Height < 1 || dim.Layers < 1 {
		panic(fmt.Sprintf("fabric: invalid dimensions %+v", dim))
	}
	f := &Fabric{dim: dim, mode: mode}
	for _, p := range pillars {
		if p.X < 0 || p.X >= dim.Width || p.Y < 0 || p.Y >= dim.Height {
			panic(fmt.Sprintf("fabric: pillar %v outside %dx%d layer", p, dim.Width, dim.Height))
		}
		f.pillars = append(f.pillars, geom.Coord{X: p.X, Y: p.Y})
	}

	route := f.routeFunc()
	f.routers = make([]*noc.Router, dim.Nodes())
	f.activeFlag = make([]bool, dim.Nodes())
	for i := range f.routers {
		f.routers[i] = noc.NewRouter(dim.CoordOf(i), route)
		i := i
		f.routers[i].SetWorkHook(func() { f.activate(i) })
	}
	// Wire mesh neighbors within each layer.
	for i, r := range f.routers {
		c := dim.CoordOf(i)
		for _, d := range []geom.Direction{geom.North, geom.South, geom.East, geom.West} {
			n := geom.Step(c, d)
			if dim.Contains(n) {
				r.Connect(d, f.Router(n).In(d.Opposite()))
			}
		}
	}
	// Create the vertical interconnect at each pillar position.
	if dim.Layers > 1 {
		switch mode {
		case VerticalBus:
			for id, p := range f.pillars {
				bus := dtdma.NewBus(id, p, dim.Layers)
				bus.SetBusyHooks(
					func() { f.busyBuses++ },
					func() { f.busyBuses-- },
				)
				for l := 0; l < dim.Layers; l++ {
					r := f.Router(geom.Coord{X: p.X, Y: p.Y, Layer: l})
					r.AttachVertical(bus.Tx(l))
					bus.AttachRx(l, r.In(geom.Vertical))
				}
				f.buses = append(f.buses, bus)
			}
		case VerticalRouter:
			for _, p := range f.pillars {
				for l := 0; l < dim.Layers; l++ {
					r := f.Router(geom.Coord{X: p.X, Y: p.Y, Layer: l})
					if l < dim.Layers-1 {
						above := f.Router(geom.Coord{X: p.X, Y: p.Y, Layer: l + 1})
						r.Connect(geom.Up, above.EnsureIn(geom.Down))
					}
					if l > 0 {
						below := f.Router(geom.Coord{X: p.X, Y: p.Y, Layer: l - 1})
						r.Connect(geom.Down, below.EnsureIn(geom.Up))
					}
				}
			}
		}
	}
	return f
}

// SetRouterPipeline sets every router's traversal latency (the paper's
// single-stage router is 1; the basic four-stage router is 4).
func (f *Fabric) SetRouterPipeline(cycles int) {
	for _, r := range f.routers {
		r.SetPipeline(cycles)
	}
}

// SetProbe attaches the observability probe to the whole interconnect:
// the fabric itself (packet inject/eject), every router (per-hop routing,
// VC stalls), and every pillar bus (dTDMA arbitration). A nil probe
// detaches everything, restoring the zero-overhead path. The same probe
// feeds both tracing and the energy accountant (core tees them), so these
// events are also the power model's activity source.
func (f *Fabric) SetProbe(p *obs.Probe) {
	f.probe = p
	for _, r := range f.routers {
		r.SetProbe(p)
	}
	for _, b := range f.buses {
		b.SetProbe(p)
	}
}

// Mode returns the fabric's vertical interconnect mode.
func (f *Fabric) Mode() VerticalMode { return f.mode }

// Dim returns the fabric dimensions.
func (f *Fabric) Dim() geom.Dim { return f.dim }

// Pillars returns the in-plane pillar positions.
func (f *Fabric) Pillars() []geom.Coord { return f.pillars }

// Buses returns the pillar buses (empty for a single-layer chip).
func (f *Fabric) Buses() []*dtdma.Bus { return f.buses }

// Router returns the router at coordinate c.
func (f *Fabric) Router(c geom.Coord) *noc.Router {
	return f.routers[f.dim.Index(c)]
}

// SetSink installs the delivery callback for packets destined to node c.
func (f *Fabric) SetSink(c geom.Coord, fn func(p *noc.Packet, cycle uint64)) {
	f.Router(c).SetSink(func(p *noc.Packet, cycle uint64) {
		f.Delivered.Inc()
		f.FlitHops.Add(uint64(p.Hops))
		f.PktLatency.Observe(cycle - p.InjectedAt)
		if p.Span != nil {
			// Close the span ledger: tail serialization and body-flit
			// stalls make up whatever the head-flit accounting left over.
			p.Span.Finish(cycle-p.InjectedAt, p.Size)
		}
		if f.probe != nil {
			f.probe.Emit(obs.Event{
				Cycle: cycle, Kind: obs.EvEject,
				X: c.X, Y: c.Y, Layer: c.Layer,
				ID: p.ID, A: cycle - p.InjectedAt, B: uint64(p.Hops),
			})
		}
		if fn != nil {
			fn(p, cycle)
		}
		// The packet is dead once the delivery callback returns; recycle
		// pool-origin packets (Put ignores caller-constructed ones).
		f.pool.Put(p)
	})
}

// NewPacket returns a zeroed packet drawn from the fabric's free list. The
// caller fills it in and hands it to Send; the fabric recycles it when the
// tail flit ejects, so the reference must not be retained past delivery.
func (f *Fabric) NewPacket() *noc.Packet { return f.pool.Get() }

// SetPillarPenalty installs a per-pillar routing penalty for pillar
// selection: BestPillar sees the column at in-plane position (x, y) as
// penalty(x, y) hops farther than it is. diverted, when non-nil, is
// invoked once per packet whose pillar choice the penalty changed. This
// is the hook for the DTM reroute actuator — pillar selection is the
// network's only routing freedom, since deviating from in-plane
// dimension-order routing would forfeit its deadlock freedom. A nil
// penalty detaches the bias, restoring the unbiased selection path.
func (f *Fabric) SetPillarPenalty(penalty func(x, y int) int, diverted func()) {
	f.pillarPenalty = penalty
	f.pillarDiverted = diverted
}

// BestPillar returns the pillar position minimizing the total in-plane
// distance src->pillar plus pillar->dst (the vertical hop itself is a
// single bus cycle regardless of layer distance), plus any installed
// pillar penalty (SetPillarPenalty). Ties break toward the lowest pillar
// index, keeping routing deterministic — the penalty is a function of
// thermal-step-boundary state, so biased routing is deterministic too.
func (f *Fabric) BestPillar(src, dst geom.Coord) (geom.Coord, bool) {
	if len(f.pillars) == 0 {
		return geom.Coord{}, false
	}
	if f.pillarPenalty == nil {
		best := f.pillars[0]
		bestD := src.HopsVia(dst, best)
		for _, p := range f.pillars[1:] {
			if d := src.HopsVia(dst, p); d < bestD {
				best, bestD = p, d
			}
		}
		return best, true
	}
	// Biased selection: track the unbiased winner alongside, so the
	// diversion callback fires exactly when the penalty changed the
	// outcome.
	best, unbiased := f.pillars[0], f.pillars[0]
	d0 := src.HopsVia(dst, best)
	bestD, unbiasedD := d0+f.pillarPenalty(best.X, best.Y), d0
	for _, p := range f.pillars[1:] {
		d := src.HopsVia(dst, p)
		if b := d + f.pillarPenalty(p.X, p.Y); b < bestD {
			best, bestD = p, b
		}
		if d < unbiasedD {
			unbiased, unbiasedD = p, d
		}
	}
	if best != unbiased && f.pillarDiverted != nil {
		f.pillarDiverted()
	}
	return best, true
}

// Send injects a packet at its source router. The fabric assigns the packet
// ID, injection timestamp, and — for cross-layer packets — the pillar to
// ride. Injection queues are unbounded, so Send never fails; queueing delay
// is captured in the measured latency.
func (f *Fabric) Send(p *noc.Packet) {
	if !f.dim.Contains(p.Src) || !f.dim.Contains(p.Dst) {
		panic(fmt.Sprintf("fabric: %v outside fabric %+v", p, f.dim))
	}
	if p.Size < 1 {
		panic(fmt.Sprintf("fabric: %v has no flits", p))
	}
	f.nextID++
	p.ID = f.nextID
	p.InjectedAt = f.now
	if p.CrossesLayers() {
		via, ok := f.BestPillar(p.Src, p.Dst)
		if !ok {
			panic(fmt.Sprintf("fabric: %v crosses layers but chip has no pillars", p))
		}
		p.Via = via
		p.HasVia = true
	}
	if f.probe != nil {
		f.probe.Emit(obs.Event{
			Cycle: f.now, Kind: obs.EvInject,
			X: p.Src.X, Y: p.Src.Y, Layer: p.Src.Layer,
			ID: p.ID, A: uint64(p.Size),
		})
	}
	f.Router(p.Src).Inject(p)
}

// routeFunc builds the 3D routing function: packets needing a layer change
// first travel in-plane (dimension-order) to their pillar, take the bus,
// then travel in-plane to the destination. Same-layer packets use plain
// dimension-order routing.
func (f *Fabric) routeFunc() noc.RouteFunc {
	return func(pos geom.Coord, p *noc.Packet) geom.Direction {
		if p.CrossesLayers() && !p.Vertical() && pos.Layer == p.Dst.Layer {
			// A 7-port-router packet reaching its destination layer is
			// promoted to the escape VC class for its final in-plane leg
			// (the bus marks packets itself as they cross).
			p.MarkVertical()
		}
		if pos.Layer != p.Dst.Layer && !p.Vertical() {
			if pos.X == p.Via.X && pos.Y == p.Via.Y {
				if f.mode == VerticalRouter {
					if pos.Layer < p.Dst.Layer {
						return geom.Up
					}
					return geom.Down
				}
				return geom.Vertical
			}
			return geom.DOR(pos, geom.Coord{X: p.Via.X, Y: p.Via.Y, Layer: pos.Layer})
		}
		return geom.DOR(pos, p.Dst)
	}
}

// activate records a router's idle-to-busy transition.
func (f *Fabric) activate(i int) {
	if !f.activeFlag[i] {
		f.activeFlag[i] = true
		f.activeList = append(f.activeList, i)
	}
}

// Tick advances every busy router, then every pillar bus, by one cycle.
// Routers that became busy during this tick (flits handed to a neighbor)
// join the list for the next cycle; routers that drained leave it.
func (f *Fabric) Tick(cycle uint64) {
	f.now = cycle
	if f.probe == nil && len(f.activeList) == 0 && f.busyBuses == 0 {
		// Nothing in flight and no probe watching the dTDMA slot wheel:
		// the whole network tick is a no-op.
		return
	}
	snapshot := len(f.activeList)
	for k := 0; k < snapshot; k++ {
		f.routers[f.activeList[k]].Tick(cycle)
	}
	for _, b := range f.buses {
		b.Tick(cycle)
	}
	keep := f.activeList[:0]
	for _, i := range f.activeList {
		if f.routers[i].Idle() {
			f.activeFlag[i] = false
		} else {
			keep = append(keep, i)
		}
	}
	f.activeList = keep
}

// ForwardedFlits returns the total flits forwarded through every router's
// crossbar — the numerator of mesh utilization.
func (f *Fabric) ForwardedFlits() uint64 {
	var n uint64
	for _, r := range f.routers {
		n += r.ForwardedFlits
	}
	return n
}

// BusFlits returns the total flits transferred across all pillar buses.
func (f *Fabric) BusFlits() uint64 {
	var n uint64
	for _, b := range f.buses {
		n += b.TotalFlits
	}
	return n
}

// Quiescent reports whether the network holds no traffic at all. It is O(1):
// every non-idle router is on the active list (the work hooks fire on each
// idle-to-busy edge, and drained routers are pruned at the end of each Tick),
// and busyBuses counts buses with pending flits via the bus edge hooks.
func (f *Fabric) Quiescent() bool {
	return len(f.activeList) == 0 && f.busyBuses == 0
}

// quiescentScan is the brute-force quiescence check, retained as the oracle
// for tests cross-checking the O(1) fast path.
func (f *Fabric) quiescentScan() bool {
	for _, r := range f.routers {
		if !r.Idle() {
			return false
		}
	}
	for _, b := range f.buses {
		if !b.Idle() {
			return false
		}
	}
	return true
}

// Idle reports whether advancing the fabric one cycle would be a no-op, so
// the engine may skip ahead. A probed fabric is never idle: the dTDMA slot
// wheel emits grow/shrink edge events even on empty cycles.
func (f *Fabric) Idle() bool {
	return f.probe == nil && len(f.activeList) == 0 && f.busyBuses == 0
}
