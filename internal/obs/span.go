package obs

import (
	"fmt"
	"io"

	"repro/internal/stats"
)

// Transaction span tracing: a causal latency decomposition of every L2
// transaction, keyed by the protocol's transaction ID. Where the event
// tracer (Probe/Sink) records isolated points, the span layer tiles each
// transaction's whole lifetime [issue, data-return] with closed,
// non-overlapping component intervals, so "where did this transaction's 24
// cycles go?" has an exact answer.
//
// The accounting follows the winning causal chain. A transaction may have
// several request/reply attempts in flight at once (two-step search probes,
// a broadcast, a victim replica raced against its home cluster); each
// attempt carries its own ChainSpan, and only the chain whose data reply
// completes the transaction is folded into the transaction's ledger. The
// time spent in attempts that failed appears as the search/retry window
// components (CompSearch1, CompSearch2, CompRetry), measured at the
// transaction level between the issue (or previous drain) point and the
// moment the next attempt departs.
//
// Conservation invariant: for every finished transaction the component
// values, excluding the informational CompL1 (paid before the transaction
// issues), sum exactly to the end-to-end latency the system already
// measures. FinishTxn checks this per transaction and the recorder counts
// violations, which the test suite pins at zero for every scheme.

// Component is one slice of the latency taxonomy. Request-path and
// reply-path network time are attributed separately so the asymmetry
// between probe packets (1 flit) and data packets (4 flits) is visible.
type Component uint8

// The latency components, in report order.
const (
	// CompL1 is the L1 lookup that missed and triggered the transaction.
	// It is paid before the transaction issues (the system charges the L1
	// hit latency up front for loads and instruction fetches), so it is
	// reported for context but excluded from the conservation sum.
	CompL1 Component = iota
	// CompSearch1 is time lost to a failed first search round: the
	// two-step schemes' phase-1 probes of the local cluster column, the
	// static scheme's home-cluster probe on a miss, or a broadcast that
	// found nothing.
	CompSearch1
	// CompSearch2 is time lost to a failed two-step phase-2 probe round
	// (the remaining clusters), after which the line is fetched from
	// memory.
	CompSearch2
	// CompRetry is time lost to NACKed attempts that were retried: the
	// perfect-search baseline re-probing after racing a migration, a
	// victim-replica miss falling back to the home cluster, or a
	// post-memory-fetch probe chasing a line that arrived by other means.
	CompRetry
	// CompReqQueue is request-packet queueing: source-injection wait plus
	// per-router buffer residency beyond the pipeline minimum (VC
	// allocation and switch arbitration stalls).
	CompReqQueue
	// CompReqLink is request-packet traversal: the router pipeline and
	// link crossings a packet pays even on an empty mesh.
	CompReqLink
	// CompReqBusWait is request-packet dTDMA pillar arbitration wait: the
	// cycles a head flit sat at a bus transmitter beyond the transfer
	// itself.
	CompReqBusWait
	// CompReqBusXfer is request-packet dTDMA pillar transfer: one cycle
	// per vertical bus crossing.
	CompReqBusXfer
	// CompTag is the serving cluster's tag array access, including the tag
	// port wait under contention.
	CompTag
	// CompBank is the serving cluster's (or, after a fill, the home
	// cluster's) data bank access.
	CompBank
	// CompDram is the off-chip DRAM access on an L2 miss.
	CompDram
	// CompRepQueue, CompRepLink, CompRepBusWait, CompRepBusXfer mirror the
	// four request components for the data reply's return path.
	CompRepQueue
	CompRepLink
	CompRepBusWait
	CompRepBusXfer
	// NumComponents sizes per-component arrays.
	NumComponents
)

var componentNames = [NumComponents]string{
	CompL1:         "l1",
	CompSearch1:    "search1",
	CompSearch2:    "search2",
	CompRetry:      "retry",
	CompReqQueue:   "req-queue",
	CompReqLink:    "req-link",
	CompReqBusWait: "req-bus-wait",
	CompReqBusXfer: "req-bus-xfer",
	CompTag:        "tag",
	CompBank:       "bank",
	CompDram:       "dram",
	CompRepQueue:   "rep-queue",
	CompRepLink:    "rep-link",
	CompRepBusWait: "rep-bus-wait",
	CompRepBusXfer: "rep-bus-xfer",
}

// String names the component (stable; used in reports and trace output).
func (c Component) String() string {
	if c < NumComponents {
		return componentNames[c]
	}
	return fmt.Sprintf("Component(%d)", uint8(c))
}

// PacketSpan splits one packet's in-network time into queueing, link
// traversal, bus arbitration wait, and bus transfer. The fabric charges it
// by following the head flit — source-queue wait at injection, buffer
// residency versus pipeline minimum at each router forward, transmitter
// residency at each pillar-bus crossing — and closes the ledger at
// ejection, where the tail's serialization cycles count as link time and
// any remaining gap (body flits stalling behind the head) as queueing. The
// four fields always sum to the packet's end-to-end network latency.
type PacketSpan struct {
	Queue   uint64
	Link    uint64
	BusWait uint64
	BusXfer uint64
}

// AddSourceWait charges cycles the head flit waited to enter the source
// router's injection queue.
func (ps *PacketSpan) AddSourceWait(w uint64) { ps.Queue += w }

// AddHop charges one router traversal: the head flit sat `residence`
// cycles in an input buffer of a router whose pipeline minimum is
// `pipeline`. The pipeline share is link time; the excess is queueing.
func (ps *PacketSpan) AddHop(residence, pipeline uint64) {
	if residence < pipeline {
		pipeline = residence
	}
	ps.Link += pipeline
	ps.Queue += residence - pipeline
}

// AddBus charges one dTDMA pillar crossing: the head flit sat `residence`
// cycles at the transmitter before the grant moved it. The crossing itself
// is one cycle of transfer (zero-residence forwards ride a same-cycle
// grant and cost nothing); the rest is arbitration wait.
func (ps *PacketSpan) AddBus(residence uint64) {
	if residence == 0 {
		return
	}
	ps.BusXfer++
	ps.BusWait += residence - 1
}

// Finish closes the ledger at ejection: total is the packet's end-to-end
// network latency, size its flit count. The head-flit accounting above
// covers the head's arrival; the tail trails it by at least size-1 cycles
// of serialization (link time), and anything beyond that is body flits
// stalling in buffers (queue time).
func (ps *PacketSpan) Finish(total uint64, size int) {
	used := ps.Queue + ps.Link + ps.BusWait + ps.BusXfer
	if total < used {
		return // inconsistent stamps; leave the partial ledger for the check
	}
	rem := total - used
	ser := uint64(size - 1)
	if ser > rem {
		ser = rem
	}
	ps.Link += ser
	ps.Queue += rem - ser
}

// Total returns the sum of the four fields.
func (ps *PacketSpan) Total() uint64 {
	return ps.Queue + ps.Link + ps.BusWait + ps.BusXfer
}

// ChainSpan is one request/serve/reply attempt of a transaction: a probe
// or memory request leaving the CPU (or memory controller), its service at
// the target, and the data reply if the attempt wins. Attempts accumulate
// independently — several may be in flight for one transaction — and only
// the winning chain is folded into the transaction's ledger.
type ChainSpan struct {
	// SentAt is the cycle the attempt departed (diagnostic; the fold works
	// on durations).
	SentAt uint64
	// Req and Rep are the network ledgers of the request and reply legs.
	Req, Rep PacketSpan
	// Tag and Bank are the serving cluster's array access times.
	Tag, Bank uint64
}

// TxnSpan is the per-transaction component ledger. lastMark is the cycle
// up to which the lifetime has been attributed; every Mark/fold advances
// it, so the components tile [Issued, completion] without gaps or overlap.
type TxnSpan struct {
	ID       uint64
	CPU      int
	Issued   uint64
	lastMark uint64
	Comp     [NumComponents]uint64
}

// Sum returns the conservation sum: every component except the pre-issue
// CompL1.
func (ts *TxnSpan) Sum() uint64 {
	var s uint64
	for c := CompSearch1; c < NumComponents; c++ {
		s += ts.Comp[c]
	}
	return s
}

// spanHistBuckets/spanHistWidth size the per-component histograms: 64
// buckets of 8 cycles cover 0..512, beyond which the open bucket reports
// the tracked maximum (the DRAM component sits at 260).
const (
	spanHistBuckets = 64
	spanHistWidth   = 8
)

// classAgg aggregates finished transactions of one class (hit or miss).
type classAgg struct {
	total stats.Dist
	comp  [NumComponents]stats.Dist
}

func newClassAgg() classAgg {
	a := classAgg{total: stats.NewDist(spanHistBuckets, spanHistWidth)}
	for i := range a.comp {
		a.comp[i] = stats.NewDist(spanHistBuckets, spanHistWidth)
	}
	return a
}

// SpanRecorder owns the span pools and aggregates. It is attached to a
// System cold (never on the default path): transactions then carry a
// TxnSpan and every attempt a ChainSpan, both drawn from free lists, so
// steady-state recording allocates nothing. The recorder is not an engine
// ticker and not a fabric probe, so attaching it leaves a quiet network's
// Tick a no-op.
type SpanRecorder struct {
	sink Sink // optional: per-interval EvSpan emission

	txnFree   []*TxnSpan
	chainFree []*ChainSpan

	hits   classAgg
	misses classAgg

	mismatches    uint64
	firstMismatch string
}

// NewSpanRecorder returns an empty recorder.
func NewSpanRecorder() *SpanRecorder {
	return &SpanRecorder{hits: newClassAgg(), misses: newClassAgg()}
}

// SetSink attaches a sink that receives one EvSpan event per attributed
// component interval (Cycle=start, X=CPU, ID=transaction, A=Component,
// B=duration). Nil detaches.
func (r *SpanRecorder) SetSink(s Sink) { r.sink = s }

// Begin opens the span of a newly issued transaction.
func (r *SpanRecorder) Begin(id uint64, cpu int, now uint64) *TxnSpan {
	var ts *TxnSpan
	if n := len(r.txnFree); n > 0 {
		ts = r.txnFree[n-1]
		r.txnFree = r.txnFree[:n-1]
	} else {
		ts = &TxnSpan{}
	}
	*ts = TxnSpan{ID: id, CPU: cpu, Issued: now, lastMark: now}
	return ts
}

// GetChain opens the span of one request attempt departing at the given
// cycle.
func (r *SpanRecorder) GetChain(sentAt uint64) *ChainSpan {
	var ch *ChainSpan
	if n := len(r.chainFree); n > 0 {
		ch = r.chainFree[n-1]
		r.chainFree = r.chainFree[:n-1]
	} else {
		ch = &ChainSpan{}
	}
	*ch = ChainSpan{SentAt: sentAt}
	return ch
}

// PutChain returns an attempt's span to the pool (the attempt lost the
// race, was NACKed, or has been folded).
func (r *SpanRecorder) PutChain(ch *ChainSpan) {
	if ch == nil {
		return
	}
	r.chainFree = append(r.chainFree, ch)
}

// emit reports one attributed interval to the sink, if any. Zero-duration
// intervals are suppressed.
func (r *SpanRecorder) emit(ts *TxnSpan, c Component, start, dur uint64) {
	if r.sink == nil || dur == 0 {
		return
	}
	r.sink.Record(Event{
		Cycle: start, Kind: EvSpan, X: ts.CPU,
		ID: ts.ID, A: uint64(c), B: dur,
	})
}

// ChargeL1 records the pre-issue L1 lookup time (informational; excluded
// from the conservation sum, and lastMark does not advance).
func (r *SpanRecorder) ChargeL1(ts *TxnSpan, cycles uint64) {
	ts.Comp[CompL1] += cycles
	r.emit(ts, CompL1, ts.Issued-cycles, cycles)
}

// Mark attributes the window since the last mark to component c and
// advances the mark to now. Call it at every transaction-level transition:
// a failed search round draining, a retry departing, the DRAM access
// completing.
func (r *SpanRecorder) Mark(ts *TxnSpan, c Component, now uint64) {
	d := now - ts.lastMark
	ts.Comp[c] += d
	r.emit(ts, c, ts.lastMark, d)
	ts.lastMark = now
}

// foldPacket attributes one leg's network ledger starting at the current
// mark and advances the mark to now (the leg's arrival). If the ledger
// does not tile the window exactly the discrepancy surfaces in the
// conservation check — it is not silently absorbed.
func (r *SpanRecorder) foldPacket(ts *TxnSpan, ps *PacketSpan, base Component, now uint64) {
	at := ts.lastMark
	for i, d := range [4]uint64{ps.Queue, ps.Link, ps.BusWait, ps.BusXfer} {
		c := base + Component(i)
		ts.Comp[c] += d
		r.emit(ts, c, at, d)
		at += d
	}
	ts.lastMark = now
}

// FoldNet attributes a request leg's network time (probe or memory
// request) ending at now.
func (r *SpanRecorder) FoldNet(ts *TxnSpan, ps *PacketSpan, now uint64) {
	r.foldPacket(ts, ps, CompReqQueue, now)
}

// FoldChain folds a winning attempt into the transaction: request network
// time, tag and bank service, then the reply's network time ending at now
// (the data arrival that completes the transaction). For a memory-fill
// reply the request leg and tag are zero and only bank + reply apply.
func (r *SpanRecorder) FoldChain(ts *TxnSpan, ch *ChainSpan, now uint64) {
	r.foldPacket(ts, &ch.Req, CompReqQueue, ts.lastMark+ch.Req.Total())
	ts.Comp[CompTag] += ch.Tag
	r.emit(ts, CompTag, ts.lastMark, ch.Tag)
	ts.lastMark += ch.Tag
	ts.Comp[CompBank] += ch.Bank
	r.emit(ts, CompBank, ts.lastMark, ch.Bank)
	ts.lastMark += ch.Bank
	r.foldPacket(ts, &ch.Rep, CompRepQueue, now)
}

// FinishTxn closes a transaction's span: total is the measured end-to-end
// latency (completion - issue), miss whether the data came from memory.
// The conservation invariant — component sum equals total — is checked
// here; violations are counted and the first is kept for diagnostics. The
// span is aggregated and returned to the pool.
func (r *SpanRecorder) FinishTxn(ts *TxnSpan, total uint64, miss bool) {
	if sum := ts.Sum(); sum != total {
		r.mismatches++
		if r.firstMismatch == "" {
			r.firstMismatch = fmt.Sprintf(
				"txn %#x (cpu %d, issued @%d): components sum to %d, measured %d: %v",
				ts.ID, ts.CPU, ts.Issued, sum, total, ts.Comp)
		}
	}
	agg := &r.hits
	if miss {
		agg = &r.misses
	}
	agg.total.Observe(total)
	for c := Component(0); c < NumComponents; c++ {
		agg.comp[c].Observe(ts.Comp[c])
	}
	r.txnFree = append(r.txnFree, ts)
}

// Reset clears the aggregates and the mismatch diagnostics, starting a
// fresh recording window. Spans of in-flight transactions are untouched —
// their ledgers run from issue, exactly like the system's latency metrics,
// so a recorder attached before warmup and reset alongside the system's
// statistics aggregates precisely the transactions the measured means
// cover. The pools survive the reset.
func (r *SpanRecorder) Reset() {
	r.hits.reset()
	r.misses.reset()
	r.mismatches = 0
	r.firstMismatch = ""
}

func (a *classAgg) reset() {
	a.total.Reset()
	for i := range a.comp {
		a.comp[i].Reset()
	}
}

// Mismatches returns the number of finished transactions whose component
// sum failed the conservation check, with a description of the first.
func (r *SpanRecorder) Mismatches() (uint64, string) {
	return r.mismatches, r.firstMismatch
}

// Finished returns the number of transactions aggregated so far.
func (r *SpanRecorder) Finished() uint64 {
	return r.hits.total.Count() + r.misses.total.Count()
}

// ComponentStat summarizes one component over a transaction class.
type ComponentStat struct {
	// Name is the component's stable name.
	Name string
	// Mean is the average cycles per transaction (including transactions
	// that spent nothing in this component).
	Mean float64
	// P95 is the 95th-percentile cycles per transaction.
	P95 uint64
	// Share is Mean divided by the class's mean total latency. The shares
	// of every component except the pre-issue "l1" sum to 1.
	Share float64
}

// ClassBreakdown is the decomposition of one transaction class.
type ClassBreakdown struct {
	// Transactions is the number of transactions in the class.
	Transactions uint64
	// MeanTotal and P95Total summarize the measured end-to-end latency
	// (MeanTotal equals the sum of the non-l1 component means).
	MeanTotal float64
	P95Total  uint64
	// Components lists every component in taxonomy order.
	Components []ComponentStat
}

// BreakdownReport is the aggregate latency decomposition over the
// recording window, split by L2 hits and misses.
type BreakdownReport struct {
	Hits   ClassBreakdown
	Misses ClassBreakdown
}

func (a *classAgg) breakdown() ClassBreakdown {
	cb := ClassBreakdown{
		Transactions: a.total.Count(),
		MeanTotal:    a.total.Mean(),
		P95Total:     a.total.P95(),
		Components:   make([]ComponentStat, NumComponents),
	}
	for c := Component(0); c < NumComponents; c++ {
		st := ComponentStat{
			Name: c.String(),
			Mean: a.comp[c].Mean(),
			P95:  a.comp[c].P95(),
		}
		if cb.MeanTotal > 0 {
			st.Share = st.Mean / cb.MeanTotal
		}
		cb.Components[c] = st
	}
	return cb
}

// Report builds the aggregate breakdown. It allocates and is meant for
// end-of-run consumption, not the hot path.
func (r *SpanRecorder) Report() *BreakdownReport {
	return &BreakdownReport{
		Hits:   r.hits.breakdown(),
		Misses: r.misses.breakdown(),
	}
}

// WriteTable renders the decomposition as a fixed-width table: one row per
// component, hit and miss columns side by side, component shares against
// the class totals. The "l1" row is annotated because it is informational
// (paid before issue) and not part of the totals.
func (b *BreakdownReport) WriteTable(w io.Writer) error {
	_, err := fmt.Fprintf(w, "%-14s %21s   %21s\n%-14s %9s %5s %5s   %9s %5s %5s\n",
		"", "L2 hits", "L2 misses",
		"component", "mean", "p95", "share", "mean", "p95", "share")
	if err != nil {
		return err
	}
	for c := Component(0); c < NumComponents; c++ {
		h, m := b.Hits.Components[c], b.Misses.Components[c]
		if h.Mean == 0 && m.Mean == 0 {
			continue
		}
		note := ""
		if c == CompL1 {
			note = "  (pre-issue, not in total)"
		}
		_, err = fmt.Fprintf(w, "%-14s %9.2f %5d %4.0f%%   %9.2f %5d %4.0f%%%s\n",
			h.Name, h.Mean, h.P95, 100*h.Share, m.Mean, m.P95, 100*m.Share, note)
		if err != nil {
			return err
		}
	}
	_, err = fmt.Fprintf(w, "%-14s %9.2f %5d %5s   %9.2f %5d %5s\n",
		"total", b.Hits.MeanTotal, b.Hits.P95Total, "",
		b.Misses.MeanTotal, b.Misses.P95Total, "")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "(%d hits, %d misses traced)\n",
		b.Hits.Transactions, b.Misses.Transactions)
	return err
}
