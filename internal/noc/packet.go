// Package noc implements the cycle-accurate on-chip network from the paper:
// a wormhole-switched 2D mesh per device layer with dimension-order routing,
// 128-bit flits, 4-flit data packets, three virtual channels per physical
// channel (each one message deep), and single-stage (1-cycle) routers.
//
// Vertical traversal is NOT a 7-port 3D router; pillar routers gain exactly
// one extra physical channel that connects to a dTDMA bus (package dtdma).
// Packets that change layers travel in two phases: phase 0 routes in-plane
// to the chosen pillar on virtual channels {0,1}; the single-hop bus ride
// promotes the packet to phase 1, which drains to the destination on the
// reserved virtual channel {2}. The phase split keeps the channel dependency
// graph acyclic, so the wormhole network is deadlock-free.
package noc

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/obs"
)

// Network constants from Table 4 and Section 3.2 of the paper.
const (
	// FlitBits is the link width: 128-bit flits.
	FlitBits = 128
	// DataPacketFlits is the length of a cache-line packet:
	// 4 flits x 128 bits = 512 bits = one 64-byte line.
	DataPacketFlits = 4
	// ControlPacketFlits is the length of request/ack packets.
	ControlPacketFlits = 1
	// NumVCs is the number of virtual channels per physical channel.
	NumVCs = 3
	// VCDepth is the virtual-channel buffer depth: one message (4 flits).
	VCDepth = 4
)

// FlitType distinguishes the flits of a wormhole packet.
type FlitType uint8

// Flit kinds. A single-flit packet uses HeadTail.
const (
	Head FlitType = iota
	Body
	Tail
	HeadTail
)

// String names the flit type.
func (t FlitType) String() string {
	switch t {
	case Head:
		return "Head"
	case Body:
		return "Body"
	case Tail:
		return "Tail"
	case HeadTail:
		return "HeadTail"
	}
	return fmt.Sprintf("FlitType(%d)", uint8(t))
}

// Flit is the unit of flow control. Flits of one packet always travel in
// order within an allocated virtual channel.
type Flit struct {
	Type FlitType
	Pkt  *Packet
	Seq  int // 0-based index within the packet
	// arrived is the cycle this flit entered its current buffer; a flit may
	// not be forwarded again in the same cycle (single-stage router model).
	arrived uint64
}

// Arrived returns the cycle the flit entered its current buffer.
func (f *Flit) Arrived() uint64 { return f.arrived }

// SetArrived stamps the buffer-entry cycle. Endpoints outside this package
// (the dTDMA bus transmitter) call it from their Accept implementations.
func (f *Flit) SetArrived(c uint64) { f.arrived = c }

// Packet is a network message. The payload is opaque to the network; the
// memory system attaches its protocol messages there.
type Packet struct {
	ID   uint64
	Src  geom.Coord
	Dst  geom.Coord
	Size int // length in flits

	// Via is the pillar (in-plane position) this packet uses to change
	// layers. Only meaningful when Src and Dst are on different layers.
	Via    geom.Coord
	HasVia bool

	Payload any

	// InjectedAt is the cycle the packet entered the source queue.
	InjectedAt uint64

	// Span, when non-nil, receives the packet's queue/link/bus-wait/
	// bus-transfer time split as the head flit moves (see obs.PacketSpan).
	// Nil by default: every charge site is guarded by one pointer check.
	Span *obs.PacketSpan

	// vertical marks phase 1: the packet has completed its bus ride and now
	// routes in-plane on the reserved escape VC.
	vertical bool

	// pooled marks a packet drawn from a PacketPool; only pooled packets
	// are recycled on ejection, so caller-constructed packets keep their
	// contents after delivery.
	pooled bool

	// Hops counts router-to-router and bus traversals, for energy accounting.
	Hops int
}

// PacketPool is a free list of Packets for allocation-free steady-state
// injection: the fabric draws every protocol packet from the pool and
// returns it when the tail flit ejects at its destination. The pool is not
// safe for concurrent use; each simulated machine owns one.
type PacketPool struct {
	free []*Packet
}

// Get returns a zeroed packet, reusing a recycled one when available.
func (pp *PacketPool) Get() *Packet {
	if n := len(pp.free); n > 0 {
		p := pp.free[n-1]
		pp.free[n-1] = nil
		pp.free = pp.free[:n-1]
		return p
	}
	return &Packet{pooled: true}
}

// Put recycles a packet for reuse. Packets not drawn from a pool are left
// untouched, so callers that construct packets directly may retain them
// after delivery. The caller must not hold a reference past Put.
func (pp *PacketPool) Put(p *Packet) {
	if p == nil || !p.pooled {
		return
	}
	*p = Packet{pooled: true}
	pp.free = append(pp.free, p)
}

// CrossesLayers reports whether the packet must ride a pillar bus.
func (p *Packet) CrossesLayers() bool { return p.Src.Layer != p.Dst.Layer }

// Vertical reports whether the packet has completed its vertical hop.
func (p *Packet) Vertical() bool { return p.vertical }

// MarkVertical promotes the packet to phase 1. The dTDMA bus calls this as
// it delivers the head flit to the destination layer.
func (p *Packet) MarkVertical() { p.vertical = true }

// vcRange returns the inclusive virtual-channel class [lo, hi] the packet may
// allocate in its current phase. See the package comment for the rationale.
func (p *Packet) vcRange() (lo, hi int) {
	if p.CrossesLayers() {
		if p.vertical {
			return NumVCs - 1, NumVCs - 1 // phase 1: escape VC only
		}
		return 0, NumVCs - 2 // phase 0: pre-vertical VCs
	}
	return 0, NumVCs - 1 // same-layer traffic may use any VC
}

// flitTypeFor returns the flit type for sequence number seq of a packet of
// the given size.
func flitTypeFor(seq, size int) FlitType {
	switch {
	case size == 1:
		return HeadTail
	case seq == 0:
		return Head
	case seq == size-1:
		return Tail
	default:
		return Body
	}
}

// String renders a short packet summary.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt#%d %v->%v size=%d", p.ID, p.Src, p.Dst, p.Size)
}
