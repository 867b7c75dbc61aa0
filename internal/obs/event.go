// Package obs is the simulator's observability layer: structured,
// cycle-stamped event tracing and periodic interval metrics, designed to
// cost nothing when disabled. Instrumented components (routers, pillar
// buses, the cluster protocol engine) carry a nil-checked *Probe field;
// with no probe attached every instrumentation site is a single pointer
// comparison, so a production run pays no allocation, no formatting, and
// no indirect call (BenchmarkTracingOverhead pins this at <= 2%).
//
// With a probe attached, events flow into a Sink — normally the bounded
// RingSink — and can be exported as Chrome trace-event JSON
// (WriteChromeTraceMeta) for visual scrubbing in Perfetto or chrome://tracing.
// The interval side is Sampler: a sim.Ticker that snapshots counter
// registries and gauge closures every N cycles into a TimeSeries with
// CSV/JSON export.
package obs

import "fmt"

// Category groups events into the instrumented subsystems. It maps to
// the "cat" field of the Chrome trace-event format, so a viewer can toggle
// whole subsystems at once.
type Category uint8

// The event categories.
const (
	// CatPacket is the packet lifecycle: injection, per-hop routing,
	// VC-allocation stalls, ejection.
	CatPacket Category = iota
	// CatDTDMA is pillar-bus arbitration: slot-wheel grow/shrink and
	// per-flit bus grants.
	CatDTDMA
	// CatMigration is cache-line migration: intra-layer steps and
	// toward-pillar steps for lines accessed from another layer.
	CatMigration
	// CatCoherence is MSI protocol activity: exclusive upgrades, sharer
	// invalidations, back-invalidations, fills, and writebacks.
	CatCoherence
	// CatCache is SRAM array activity at the clusters: tag-array lookups
	// and per-bank data reads and writes — the charging points of the
	// energy accountant's bank and tag components.
	CatCache
	// CatSpan is transaction span tracing: one closed interval of an L2
	// transaction's lifetime attributed to a latency component.
	CatSpan
	numCategories
)

// String names the category (the Chrome trace "cat" value).
func (c Category) String() string {
	switch c {
	case CatPacket:
		return "packet"
	case CatDTDMA:
		return "dtdma"
	case CatMigration:
		return "migration"
	case CatCoherence:
		return "coherence"
	case CatCache:
		return "cache"
	case CatSpan:
		return "span"
	}
	return fmt.Sprintf("Category(%d)", uint8(c))
}

// Kind identifies one event type within its category.
type Kind uint8

// The event kinds. Comments give the meaning of the Event numeric fields
// for that kind (unused fields are zero).
const (
	// EvInject: packet entered its source router's injection queue.
	// ID=packet, A=size in flits.
	EvInject Kind = iota
	// EvHop: a head flit won arbitration and crossed a router's crossbar.
	// ID=packet, A=output direction (geom.Direction), B=packet size in
	// flits (the head-only event stands for the whole packet, so energy
	// accounting charges all B flit traversals at once).
	EvHop
	// EvVCStall: a buffered head flit failed downstream VC allocation this
	// cycle. ID=packet, A=requested direction.
	EvVCStall
	// EvEject: packet's tail flit left the network at its destination.
	// ID=packet, A=end-to-end latency in cycles, B=hops.
	EvEject

	// EvSlotGrow: the dTDMA slot wheel widened. ID=pillar, A=active
	// clients now, B=active clients before.
	EvSlotGrow
	// EvSlotShrink: the dTDMA slot wheel narrowed. ID=pillar, A=active
	// clients now, B=active clients before.
	EvSlotShrink
	// EvBusGrant: the arbiter granted the bus and one flit crossed the
	// stack. ID=pillar, A=transmitting layer, B=destination layer.
	EvBusGrant

	// EvMigStep: one intra-layer migration step toward the accessor's
	// local cluster. ID=line address, A=origin cluster, B=target cluster.
	EvMigStep
	// EvMigPillar: a migration step toward the accessor's pillar, for a
	// line on a different layer than its accessor. ID=line address,
	// A=origin cluster, B=target cluster.
	EvMigPillar

	// EvCohUpgrade: a line transitioned to Modified for a new exclusive
	// owner. ID=line address, A=new owner CPU.
	EvCohUpgrade
	// EvCohInval: the directory invalidated one L1 sharer. ID=line
	// address, A=sharer CPU.
	EvCohInval
	// EvCohBackInval: an L2 eviction back-invalidated one L1 sharer.
	// ID=line address, A=sharer CPU.
	EvCohBackInval
	// EvCohFill: a line installed into the L2 from memory. ID=line
	// address, A=home cluster.
	EvCohFill
	// EvCohWriteback: a dirty line left the L2 for memory. ID=line
	// address, A=evicting cluster.
	EvCohWriteback

	// EvTagProbe: one cluster tag-array activation, at the cluster's
	// controller node. ID=line address, A=cluster.
	EvTagProbe
	// EvBankRead: one L2 data-bank read, at the bank's node. ID=line
	// address, A=cluster, B=bank.
	EvBankRead
	// EvBankWrite: one L2 data-bank write (exclusive grant or line
	// install), at the bank's node. ID=line address, A=cluster, B=bank.
	EvBankWrite

	// EvSpan: one component interval of a traced L2 transaction, emitted by
	// the SpanRecorder when a sink is attached. Cycle=interval start,
	// X=issuing CPU, ID=transaction, A=Component, B=duration in cycles.
	EvSpan
	numKinds
)

// kindInfo is the static per-kind metadata table.
var kindInfo = [numKinds]struct {
	cat  Category
	name string
}{
	EvInject:       {CatPacket, "inject"},
	EvHop:          {CatPacket, "hop"},
	EvVCStall:      {CatPacket, "vc-stall"},
	EvEject:        {CatPacket, "eject"},
	EvSlotGrow:     {CatDTDMA, "slot-grow"},
	EvSlotShrink:   {CatDTDMA, "slot-shrink"},
	EvBusGrant:     {CatDTDMA, "bus-grant"},
	EvMigStep:      {CatMigration, "mig-step"},
	EvMigPillar:    {CatMigration, "mig-pillar"},
	EvCohUpgrade:   {CatCoherence, "upgrade"},
	EvCohInval:     {CatCoherence, "inval"},
	EvCohBackInval: {CatCoherence, "back-inval"},
	EvCohFill:      {CatCoherence, "fill"},
	EvCohWriteback: {CatCoherence, "writeback"},
	EvTagProbe:     {CatCache, "tag-probe"},
	EvBankRead:     {CatCache, "bank-read"},
	EvBankWrite:    {CatCache, "bank-write"},
	EvSpan:         {CatSpan, "span"},
}

// Category returns the subsystem the kind belongs to.
func (k Kind) Category() Category {
	if int(k) < len(kindInfo) {
		return kindInfo[k].cat
	}
	return numCategories
}

// String names the kind (the Chrome trace "name" value).
func (k Kind) String() string {
	if int(k) < len(kindInfo) {
		return kindInfo[k].name
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one cycle-stamped observation. It is a small value type —
// recording one costs a struct copy into the sink, never an allocation.
// X/Y/Layer locate the emitting component on the chip; ID, A, and B are
// kind-specific (see the Kind constants).
type Event struct {
	Cycle       uint64
	Kind        Kind
	X, Y, Layer int
	ID          uint64
	A, B        uint64
}

// String renders a compact human-readable form, mainly for tests and logs.
func (e Event) String() string {
	return fmt.Sprintf("@%d %s/%s (%d,%d,%d) id=%#x a=%d b=%d",
		e.Cycle, e.Kind.Category(), e.Kind, e.X, e.Y, e.Layer, e.ID, e.A, e.B)
}

// Sink receives recorded events. Implementations must be cheap: Record is
// called from the simulator's inner loops.
type Sink interface {
	Record(e Event)
}

// Probe is the handle instrumented components hold. A nil *Probe is valid
// and records nothing, so components store it as a plain field and guard
// hot emission sites with a single `p != nil` check (the check, not a
// method call, is the disabled-path cost).
type Probe struct {
	sink Sink
}

// NewProbe wraps a sink in a probe. A nil sink yields a nil probe, which
// keeps every instrumentation site disabled.
func NewProbe(s Sink) *Probe {
	if s == nil {
		return nil
	}
	return &Probe{sink: s}
}

// Emit records one event. Safe on a nil receiver (no-op), so cold call
// sites may skip the explicit nil check.
func (p *Probe) Emit(e Event) {
	if p == nil {
		return
	}
	p.sink.Record(e)
}

// Tee composes two sinks: every recorded event is forwarded to both. A nil
// operand is elided, so Tee(a, nil) is just a — which lets a probe carry a
// trace ring and an energy accountant simultaneously without either paying
// for the other when detached.
func Tee(a, b Sink) Sink {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return teeSink{a, b}
}

type teeSink struct{ a, b Sink }

func (t teeSink) Record(e Event) {
	t.a.Record(e)
	t.b.Record(e)
}
