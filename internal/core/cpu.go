package core

import (
	"repro/internal/cache"
	"repro/internal/geom"
	"repro/internal/trace"
)

// storeBufferSlots bounds outstanding stores per core. An in-order core
// retires stores through a small write buffer; when it fills, the core
// stalls until an exclusive transaction completes.
const storeBufferSlots = 8

// CPU is one in-order, single-issue core (Table 4) with its private
// write-through L1, driven by a deterministic reference stream. Loads block
// the core; stores retire through the store buffer and complete in the
// background via exclusive L2 transactions.
type CPU struct {
	sys     *System
	id      int
	pos     geom.Coord
	cluster int
	l1      l1 // data cache
	l1i     l1 // instruction cache (the paper's split I/D L1)
	gen     trace.Stream

	instrs       uint64
	loads        uint64
	stores       uint64
	ifetches     uint64
	ifetchMisses uint64
	storeCredits int

	// blockedStore/stalledRef hold the reference waiting on a full store
	// buffer / an ifetch miss; pendingRef carries the reference of the
	// core's single outstanding typed pipeline event (the in-order core
	// never has two such events in flight). Value fields: scheduling a
	// delayed access allocates nothing. step fetches straight into
	// pendingRef, and the access path takes a pointer to it and copies a
	// reference only to park it: a 40-byte Ref returned, stored and
	// reloaded through the stack costs a store-forwarding stall per step.
	blockedStore trace.Ref
	hasBlocked   bool
	stalledRef   trace.Ref
	hasStalled   bool
	pendingRef   trace.Ref

	running bool
}

func newCPU(sys *System, id int, gen trace.Stream) *CPU {
	pos := sys.Top.CPUs[id]
	return &CPU{
		sys:          sys,
		id:           id,
		pos:          pos,
		cluster:      sys.Top.ClusterOf(pos),
		l1:           newL1(sys.Cfg.L1Sets, sys.Cfg.L1Ways),
		l1i:          newL1(sys.Cfg.L1Sets, sys.Cfg.L1Ways),
		gen:          gen,
		storeCredits: storeBufferSlots,
	}
}

// start begins execution; the stagger desynchronizes the cores slightly, as
// real cores never tick in lockstep.
func (c *CPU) start() {
	c.running = true
	c.sys.Engine.AfterEvent(uint64(1+c.id), c.sys, evCPUStep, c)
}

// step fetches the next reference, executes its leading non-memory
// instructions (one per cycle at issue width 1), then performs the access.
func (c *CPU) step() {
	if !c.running {
		return
	}
	if c.sys.dtm != nil && c.sys.dtm.DutyStall(c.id) {
		// DTM duty-cycling: the core's cell is above the trip point, and
		// this front-end slot is a skip slot — stall one cycle without
		// fetching. Retiring fewer instructions per cycle is exactly how
		// the actuator sheds the core's 8 W budget.
		c.sys.Engine.AfterEvent(1, c.sys, evCPUStep, c)
		return
	}
	c.pendingRef = c.gen.Next()
	ref := &c.pendingRef
	c.instrs += uint64(ref.Gap)
	if ref.Gap == 0 {
		c.access(ref)
		return
	}
	c.sys.Engine.AfterEvent(uint64(ref.Gap), c.sys, evCPUAccess, c)
}

func (c *CPU) access(ref *trace.Ref) {
	c.instrs++
	if ref.HasCode {
		c.ifetches++
		if hit, _ := c.l1i.lookup(ref.Code); !hit {
			// An instruction-cache miss stalls the in-order front end; the
			// data access resumes when the code line returns.
			c.ifetchMisses++
			c.stalledRef = *ref
			c.hasStalled = true
			c.sys.Engine.AfterEvent(uint64(c.sys.Cfg.L1HitCycles), c.sys, evCPUIfetch, c)
			return
		}
	}
	c.dataAccess(ref)
}

// ifetchDone fills the instruction cache and resumes the stalled reference.
func (c *CPU) ifetchDone(code cache.LineAddr) {
	c.l1i.install(code, false)
	if !c.hasStalled {
		return
	}
	c.pendingRef = c.stalledRef
	c.hasStalled = false
	c.sys.Engine.AfterEvent(1, c.sys, evCPUData, c)
}

func (c *CPU) dataAccess(ref *trace.Ref) {
	if ref.Write {
		c.store(ref)
	} else {
		c.load(ref)
	}
}

// load performs a blocking read: an L1 hit costs L1HitCycles; a miss issues
// an L2 read transaction and stalls the core until the data returns.
func (c *CPU) load(ref *trace.Ref) {
	c.loads++
	if hit, _ := c.l1.lookup(ref.Addr); hit {
		c.sys.Engine.AfterEvent(uint64(c.sys.Cfg.L1HitCycles), c.sys, evCPUStep, c)
		return
	}
	c.pendingRef = *ref
	c.sys.Engine.AfterEvent(uint64(c.sys.Cfg.L1HitCycles), c.sys, evCPULoadMiss, c)
}

// store performs a write-through store. A hit on a Modified line retires
// immediately; a hit on a Shared line needs an ownership upgrade; a miss is
// a read-for-ownership. Upgrades and RFOs run in the background through the
// store buffer; a full buffer stalls the core.
func (c *CPU) store(ref *trace.Ref) {
	c.stores++
	hit, modified := c.l1.lookup(ref.Addr)
	if hit && modified {
		c.sys.Engine.AfterEvent(1, c.sys, evCPUStep, c)
		return
	}
	if c.storeCredits == 0 {
		c.blockedStore = *ref
		c.hasBlocked = true
		return // resumed by storeDone
	}
	c.storeCredits--
	c.sys.startTxn(c, ref.Addr, true)
	c.sys.Engine.AfterEvent(1, c.sys, evCPUStep, c)
}

// loadDone receives the data for a blocking load: fill the L1 Shared and
// resume execution.
func (c *CPU) loadDone(addr cache.LineAddr) {
	c.l1.install(addr, false)
	c.sys.Engine.AfterEvent(1, c.sys, evCPUStep, c)
}

// storeDone completes an exclusive transaction: fill Modified, return the
// store-buffer credit, and unblock a stalled store if one is waiting.
func (c *CPU) storeDone(addr cache.LineAddr) {
	c.l1.install(addr, true)
	c.storeCredits++
	if c.hasBlocked {
		ref := c.blockedStore
		c.hasBlocked = false
		c.storeCredits--
		c.sys.startTxn(c, ref.Addr, true)
		c.sys.Engine.AfterEvent(1, c.sys, evCPUStep, c)
	}
}

// handle dispatches a CPU-addressed network message.
func (c *CPU) handle(m *Msg, cycle uint64) {
	switch m.Kind {
	case msgData:
		c.sys.data(m, cycle)
	case msgNack:
		c.sys.nack(m.Txn)
	case msgInval:
		c.l1.invalidate(m.Addr)
		c.sys.send(c.pos, &Msg{Kind: msgInvalAck, Cluster: m.Cluster, CPU: c.id, Addr: m.Addr, ToCluster: true})
	default:
		panic("core: CPU received " + m.Kind.String())
	}
}
