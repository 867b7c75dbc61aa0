package noc

import (
	"repro/internal/digest"
	"repro/internal/geom"
)

// DigestFold folds the packet's identity and routing state. Payload and
// the tracing span are deliberately excluded: Payload points back into
// protocol state digested by the owning subsystem, and spans are
// observer-only. The pooled flag is host bookkeeping.
func (p *Packet) DigestFold(r *digest.Recorder) {
	r.Fold(p.ID)
	foldCoord(r, p.Src)
	foldCoord(r, p.Dst)
	r.FoldInt(p.Size)
	foldCoord(r, p.Via)
	r.FoldBool(p.HasVia)
	r.Fold(p.InjectedAt)
	r.FoldBool(p.vertical)
	r.FoldInt(p.Hops)
}

// DigestFold folds one in-flight flit: its type, sequence position,
// arrival stamp, and owning packet ID (the packet body is folded where
// it is queued, not per flit).
func (f *Flit) DigestFold(r *digest.Recorder) {
	r.Fold(uint64(f.Type))
	r.FoldInt(f.Seq)
	r.Fold(f.arrived)
	if f.Pkt != nil {
		r.Fold(f.Pkt.ID)
	} else {
		r.Fold(0)
	}
}

// DigestFold folds the router's queues and arbitration state: the
// un-injected tail of the source queue (with full packet bodies — these
// packets exist nowhere else yet), per-VC buffers in FIFO order, and
// the occupancy/rotation counters. The probe, work closure, and routing
// function are host-side wiring; pipeline depth is configuration.
func (rt *Router) DigestFold(r *digest.Recorder) {
	for i := rt.srcHead; i < len(rt.srcQ); i++ {
		rt.srcQ[i].DigestFold(r)
	}
	r.FoldInt(rt.srcSeq)
	r.FoldInt(rt.srcVC)
	r.FoldInt(rt.buffered)
	r.Fold(uint64(rt.occ))
	r.Fold(uint64(rt.rot))
	r.Fold(rt.ForwardedFlits)
	for d := geom.Direction(0); d < geom.NumDirections; d++ {
		p := rt.in[d]
		if p == nil {
			r.Fold(0)
			continue
		}
		r.Fold(1)
		for v := range p.vcs {
			p.vcs[v].digestFold(r)
		}
	}
}

// digestFold folds one virtual channel: buffered flits in FIFO order
// (ring position is representation, FIFO content is state), the owning
// packet, and the routing decision latched for it.
func (v *vc) digestFold(r *digest.Recorder) {
	r.FoldInt(v.n)
	for i := 0; i < v.n; i++ {
		v.buf[(v.head+i)%VCDepth].DigestFold(r)
	}
	r.FoldBool(v.owner != nil)
	if v.owner != nil {
		r.Fold(v.owner.ID)
	}
	r.FoldBool(v.routed)
	r.FoldInt(int(v.route))
	r.FoldInt(v.outVC)
}

func foldCoord(r *digest.Recorder, c geom.Coord) {
	r.FoldInt(c.X)
	r.FoldInt(c.Y)
	r.FoldInt(c.Layer)
}
