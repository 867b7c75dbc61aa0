package noc

import (
	"math/bits"

	"repro/internal/geom"
	"repro/internal/obs"
)

// Endpoint is anything a router output port can push flits into: a
// neighboring router's input port, a dTDMA bus transmitter, or the local
// ejection sink. Flow control is credit-based: the sender allocates a
// virtual channel for each packet (AllocVC), then checks buffer space
// (CanAccept) before each flit.
type Endpoint interface {
	// AllocVC reserves a virtual channel for the packet and returns its
	// index, or -1 if no VC in the packet's class is free.
	AllocVC(p *Packet) int
	// CanAccept reports whether VC v has buffer space for one more flit.
	CanAccept(v int) bool
	// Accept stores the flit into VC v. cycle is the current clock; the
	// flit may not be forwarded again until a later cycle.
	Accept(f Flit, v int, cycle uint64)
}

// RouteFunc computes the output direction for a packet at a router. The
// fabric supplies an implementation that knows the pillar positions.
type RouteFunc func(pos geom.Coord, p *Packet) geom.Direction

// SinkFunc is invoked when a packet's tail flit ejects at its destination.
type SinkFunc func(p *Packet, cycle uint64)

// InPort is a router input port: NumVCs virtual channels of VCDepth flits.
type InPort struct {
	r   *Router
	dir geom.Direction
	vcs [NumVCs]vc
}

// AllocVC claims a free VC in the packet's class, or returns -1.
func (p *InPort) AllocVC(pkt *Packet) int {
	lo, hi := pkt.vcRange()
	for i := lo; i <= hi; i++ {
		if p.vcs[i].free() {
			p.vcs[i].claim(pkt)
			return i
		}
	}
	return -1
}

// CanAccept reports whether VC v has space for one flit.
func (p *InPort) CanAccept(v int) bool { return !p.vcs[v].full() }

// Accept buffers the flit into VC v.
func (p *InPort) Accept(f Flit, v int, cycle uint64) {
	if p.r.work != nil && p.r.Idle() {
		p.r.work()
	}
	f.arrived = cycle
	p.vcs[v].push(f)
	p.r.buffered++
	p.r.occ |= 1 << (uint(p.dir)*NumVCs + uint(v))
}

// sinkEndpoint adapts a SinkFunc to the Endpoint interface. Ejection always
// has capacity; the callback fires when a packet's tail flit arrives.
type sinkEndpoint struct {
	fn SinkFunc
}

func (s *sinkEndpoint) AllocVC(p *Packet) int { return 0 }
func (s *sinkEndpoint) CanAccept(v int) bool  { return true }
func (s *sinkEndpoint) Accept(f Flit, v int, cycle uint64) {
	if f.Type == Tail || f.Type == HeadTail {
		if s.fn != nil {
			s.fn(f.Pkt, cycle)
		}
	}
}

// Router is a single-stage wormhole router. Route computation, VC
// allocation, switch allocation, and crossbar traversal are folded into one
// cycle (the paper's speculative/look-ahead single-stage router), so a flit
// advances one hop per cycle when it wins arbitration.
type Router struct {
	Pos   geom.Coord
	route RouteFunc

	// pipeline is the router traversal depth in cycles: 1 models the
	// paper's single-stage speculative router; 4 models the basic
	// RT/VA/SA/XBAR pipeline it improves upon (Section 3.2).
	pipeline uint64

	in  [geom.NumDirections]*InPort
	out [geom.NumDirections]Endpoint

	// Source (injection) queue: unbounded, so protocol layers above the
	// network can never deadlock on injection back-pressure. Source-queue
	// wait time is part of measured latency. The queue is a head-indexed
	// ring over one slice: draining advances srcHead (nil-ing the slot so
	// delivered packets are not pinned) and the slice compacts once the
	// drained prefix dominates, keeping capacity bounded by the high-water
	// occupancy instead of growing with total traffic.
	srcQ     []*Packet
	srcHead  int
	srcSeq   int
	srcVC    int
	buffered int // flits currently held in input VCs
	// occ is the occupancy bitmask over (input port, VC) slots; arbitration
	// visits only occupied slots, so router work scales with buffered
	// flits rather than port count.
	occ uint32
	// work, when set, is invoked on the idle-to-busy transition so the
	// fabric can keep an active-router list instead of ticking every
	// router every cycle.
	work func()
	// rot rotates the arbitration starting slot each cycle for fairness.
	rot uint

	// ForwardedFlits counts flits sent through this router's crossbar,
	// for utilization and energy accounting.
	ForwardedFlits uint64

	// probe, when non-nil, receives packet-lifecycle events (per-hop
	// routing, VC-allocation stalls). Nil by default: every emission site
	// is guarded by one pointer comparison.
	probe *obs.Probe
}

// NewRouter creates a router at pos with the standard five physical
// channels (N/S/E/W/Local). Call AttachVertical to add the pillar port.
func NewRouter(pos geom.Coord, route RouteFunc) *Router {
	r := &Router{Pos: pos, route: route, srcVC: -1, pipeline: 1}
	for _, d := range []geom.Direction{geom.North, geom.South, geom.East, geom.West, geom.Local} {
		r.in[d] = &InPort{r: r, dir: d}
	}
	return r
}

// SetPipeline sets the router traversal latency in cycles (>= 1). The
// default single-stage router (1) folds route computation, VC allocation,
// switch allocation and crossbar traversal into one cycle; 4 models the
// basic four-stage router the paper contrasts against.
func (r *Router) SetPipeline(cycles int) {
	if cycles < 1 {
		cycles = 1
	}
	r.pipeline = uint64(cycles)
}

// In returns the input port facing the given direction, or nil if absent.
func (r *Router) In(d geom.Direction) *InPort { return r.in[d] }

// Connect wires the output port in direction d to an endpoint.
func (r *Router) Connect(d geom.Direction, ep Endpoint) { r.out[d] = ep }

// AttachVertical adds the pillar physical channel: an input port fed by the
// dTDMA bus and an output port into the bus transmitter.
func (r *Router) AttachVertical(tx Endpoint) {
	r.in[geom.Vertical] = &InPort{r: r, dir: geom.Vertical}
	r.out[geom.Vertical] = tx
}

// EnsureIn creates the input port facing direction d if absent. The fabric
// uses it to give 7-port 3D routers (the paper's rejected alternative to
// the dTDMA pillar, Section 3.1) their Up/Down physical channels.
func (r *Router) EnsureIn(d geom.Direction) *InPort {
	if r.in[d] == nil {
		r.in[d] = &InPort{r: r, dir: d}
	}
	return r.in[d]
}

// HasVertical reports whether this is a pillar (gateway) router.
func (r *Router) HasVertical() bool { return r.in[geom.Vertical] != nil }

// SetSink installs the local ejection callback.
func (r *Router) SetSink(fn SinkFunc) {
	r.out[geom.Local] = &sinkEndpoint{fn: fn}
}

// Inject queues a packet for injection at this router's local port.
func (r *Router) Inject(p *Packet) {
	if r.work != nil && r.Idle() {
		r.work()
	}
	r.srcQ = append(r.srcQ, p)
}

// SetWorkHook installs the idle-to-busy notification callback.
func (r *Router) SetWorkHook(fn func()) { r.work = fn }

// SetProbe attaches (or, with nil, detaches) the observability probe.
func (r *Router) SetProbe(p *obs.Probe) { r.probe = p }

// QueuedPackets returns the number of packets waiting in the source queue.
func (r *Router) QueuedPackets() int { return len(r.srcQ) - r.srcHead }

// Idle reports whether the router holds no flits and has nothing to inject.
func (r *Router) Idle() bool { return r.buffered == 0 && r.srcHead == len(r.srcQ) }

// inject moves at most one flit per cycle from the source queue into the
// local input port, claiming a VC per packet like any upstream link would.
func (r *Router) inject(cycle uint64) {
	if r.srcHead == len(r.srcQ) {
		return
	}
	p := r.srcQ[r.srcHead]
	port := r.in[geom.Local]
	if r.srcVC < 0 {
		r.srcVC = port.AllocVC(p)
		if r.srcVC < 0 {
			return
		}
	}
	if !port.CanAccept(r.srcVC) {
		return
	}
	if r.srcSeq == 0 && p.Span != nil {
		p.Span.AddSourceWait(cycle - p.InjectedAt)
	}
	port.Accept(Flit{Type: flitTypeFor(r.srcSeq, p.Size), Pkt: p, Seq: r.srcSeq}, r.srcVC, cycle)
	r.srcSeq++
	if r.srcSeq == p.Size {
		r.srcQ[r.srcHead] = nil
		r.srcHead++
		r.srcSeq = 0
		r.srcVC = -1
		switch {
		case r.srcHead == len(r.srcQ):
			r.srcQ = r.srcQ[:0]
			r.srcHead = 0
		case r.srcHead > len(r.srcQ)/2:
			n := copy(r.srcQ, r.srcQ[r.srcHead:])
			clear(r.srcQ[n:])
			r.srcQ = r.srcQ[:n]
			r.srcHead = 0
		}
	}
}

// Tick advances the router one cycle: injection, then one arbitration pass
// over the occupied virtual channels. Each input port and each output port
// moves at most one flit per cycle (one crossbar input and output each);
// the starting slot rotates every cycle so competing flows share links
// fairly. Visiting only occupied slots keeps the per-cycle cost
// proportional to the flits actually buffered.
func (r *Router) Tick(cycle uint64) {
	if r.Idle() {
		return
	}
	r.inject(cycle)

	const slots = uint(geom.NumDirections) * NumVCs
	var usedIn, usedOut [geom.NumDirections]bool
	r.rot = (r.rot + 1) % slots
	// Rotate the occupancy view so arbitration starts at a different slot
	// each cycle.
	occ := r.occ>>r.rot | r.occ<<(slots-r.rot)
	mask := uint32(1)<<slots - 1
	occ &= mask
	for occ != 0 {
		bit := uint(bits.TrailingZeros32(occ))
		occ &^= 1 << bit
		idx := (bit + r.rot) % slots
		inDir := geom.Direction(idx / NumVCs)
		if usedIn[inDir] {
			continue
		}
		port := r.in[inDir]
		v := &port.vcs[idx%NumVCs]
		if v.empty() {
			continue
		}
		f := v.front()
		if f.arrived+r.pipeline > cycle {
			continue // still inside the router pipeline
		}
		if !v.routed {
			v.route = r.route(r.Pos, f.Pkt)
			v.routed = true
		}
		if usedOut[v.route] {
			continue
		}
		ep := r.out[v.route]
		if ep == nil {
			continue
		}
		if v.outVC < 0 {
			v.outVC = ep.AllocVC(f.Pkt)
			if v.outVC < 0 {
				if r.probe != nil {
					r.probe.Emit(obs.Event{
						Cycle: cycle, Kind: obs.EvVCStall,
						X: r.Pos.X, Y: r.Pos.Y, Layer: r.Pos.Layer,
						ID: f.Pkt.ID, A: uint64(v.route),
					})
				}
				continue // VC allocation stall
			}
		}
		if !ep.CanAccept(v.outVC) {
			continue // credit stall
		}
		fl := v.pop()
		r.buffered--
		if v.empty() {
			r.occ &^= 1 << idx
		}
		fl.Pkt.Hops++
		r.ForwardedFlits++
		if sp := fl.Pkt.Span; sp != nil && (fl.Type == Head || fl.Type == HeadTail) {
			sp.AddHop(cycle-fl.arrived, r.pipeline)
		}
		if r.probe != nil && (fl.Type == Head || fl.Type == HeadTail) {
			r.probe.Emit(obs.Event{
				Cycle: cycle, Kind: obs.EvHop,
				X: r.Pos.X, Y: r.Pos.Y, Layer: r.Pos.Layer,
				ID: fl.Pkt.ID, A: uint64(v.route), B: uint64(fl.Pkt.Size),
			})
		}
		ep.Accept(fl, v.outVC, cycle)
		usedIn[inDir] = true
		usedOut[v.route] = true
		if fl.Type == Tail || fl.Type == HeadTail {
			v.release()
		}
	}
}
