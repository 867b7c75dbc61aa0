package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dtdma"
	"repro/internal/fabric"
	"repro/internal/geom"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Layer microbenchmarks time one layer's public functions on seeded
// synthetic inputs, so a change to that layer shows up without the rest
// of the machine around it. They run identically in every traced run.

// benchReps is how many times each microbenchmark repeats its timed loop;
// the reported value is the median.
const benchReps = 5

// loadedPacketsPerCycle is the offered load of the loaded-fabric
// microbenchmark. At 0.4 uniform random 4-flit packets per cycle the
// 8x8x4 mesh carries 13.3 flit hops per cycle, what the stacked-mgrid
// machine carries (its 1.59 packets per cycle are mostly 1-flit requests;
// offering that many 4-flit packets saturates the pillars and the queues
// grow without bound).
const loadedPacketsPerCycle = 0.4

// layerBenches runs every microbenchmark and returns its metrics.
func layerBenches(o opts) (map[string]float64, error) {
	n := func(full int) int {
		if o.quick {
			return max(full/1000, 1)
		}
		return full
	}
	top, err := config.NewTopology(stackedConfig())
	if err != nil {
		return nil, err
	}
	out := map[string]float64{
		"fabric.idle_tick_ns": fabricIdle(top, n(1_000_000)),
		"sim.event_ns":        engineEvents(o.seed, n(500_000)),
		"trace.next_ns":       generatorNext(o.seed, n(1_000_000)),
	}
	if out["fabric.loaded_tick_ns"], err = fabricLoaded(top, o.seed, n(20_000)); err != nil {
		return nil, err
	}
	if out["dtdma.tick_ns_1client"], err = busTick(1, n(200_000)); err != nil {
		return nil, err
	}
	if out["dtdma.tick_ns_4client"], err = busTick(4, n(200_000)); err != nil {
		return nil, err
	}
	serveOut, err := serveLayers(o, n(500), n(3))
	if err != nil {
		return nil, err
	}
	for k, v := range serveOut {
		out[k] = v
	}
	return out, nil
}

// timeReps runs fn benchReps times and returns the median nanoseconds
// per operation, where one call of fn performs ops operations.
func timeReps(ops int, fn func()) float64 {
	var ns []float64
	for i := 0; i < benchReps; i++ {
		t0 := time.Now()
		fn()
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(ops))
	}
	return median(ns)
}

// fabricLoaded times Fabric.Send and Fabric.Tick on the stacked machine's
// 8x8x4 mesh and pillars, offered uniform random 4-flit packets at the
// stacked-mgrid traffic level. It checks every packet is delivered.
func fabricLoaded(top *config.Topology, seed uint64, cycles int) (float64, error) {
	f := fabric.New(top.Dim, top.Pillars)
	nodes := top.Dim.Nodes()
	for i := 0; i < nodes; i++ {
		f.SetSink(top.Dim.CoordOf(i), func(*noc.Packet, uint64) {})
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	type injection struct {
		send     bool
		src, dst geom.Coord
	}
	schedule := make([]injection, cycles)
	offered := 0
	for c := range schedule {
		if rng.Float64() >= loadedPacketsPerCycle {
			continue
		}
		src, dst := rng.Intn(nodes), rng.Intn(nodes-1)
		if dst >= src {
			dst++
		}
		schedule[c] = injection{true, top.Dim.CoordOf(src), top.Dim.CoordOf(dst)}
		offered++
	}
	var cycle uint64
	run := func() {
		for _, in := range schedule {
			cycle++
			if in.send {
				p := f.NewPacket()
				p.Src, p.Dst, p.Size = in.src, in.dst, noc.DataPacketFlits
				f.Send(p)
			}
			f.Tick(cycle)
		}
	}
	run() // fill the mesh to its steady state before timing
	ns := timeReps(cycles, run)
	for drain := 0; !f.Quiescent() && drain < 100_000; drain++ {
		cycle++
		f.Tick(cycle)
	}
	if want := uint64(offered * (benchReps + 1)); f.Delivered.Value() != want {
		return 0, fmt.Errorf("fabric microbenchmark: %d of %d packets delivered", f.Delivered.Value(), want)
	}
	return ns, nil
}

// fabricIdle times Fabric.Tick with nothing in flight.
func fabricIdle(top *config.Topology, ticks int) float64 {
	f := fabric.New(top.Dim, top.Pillars)
	var cycle uint64
	return timeReps(ticks, func() {
		for i := 0; i < ticks; i++ {
			cycle++
			f.Tick(cycle)
		}
	})
}

// busSink is a pillar receiver that accepts every flit.
type busSink struct{ flits int }

func (s *busSink) AllocVC(*noc.Packet) int      { return 0 }
func (s *busSink) CanAccept(int) bool           { return true }
func (s *busSink) Accept(noc.Flit, int, uint64) { s.flits++ }

// busTick times dtdma.Bus.Tick on a lone 4-layer pillar whose first
// senders layers each refill their transmitter with a 4-flit packet for
// the layer above as soon as the previous one has crossed. One sender
// holds the bus alone; four make the arbiter rotate its time slots.
func busTick(senders, ticks int) (float64, error) {
	const layers = 4
	b := dtdma.NewBus(0, geom.Coord{}, layers)
	sinks := make([]*busSink, layers)
	for l := range sinks {
		sinks[l] = &busSink{}
		b.AttachRx(l, sinks[l])
	}
	txs := make([]*dtdma.TxPort, senders)
	pkts := make([]*noc.Packet, senders)
	for l := range txs {
		txs[l] = b.Tx(l)
		pkts[l] = &noc.Packet{
			Src: geom.Coord{Layer: l}, Dst: geom.Coord{Layer: (l + 1) % layers},
			Size: noc.DataPacketFlits,
		}
	}
	flitTypes := [noc.DataPacketFlits]noc.FlitType{noc.Head, noc.Body, noc.Body, noc.Tail}
	var cycle uint64
	sent := 0
	ns := timeReps(ticks, func() {
		for i := 0; i < ticks; i++ {
			cycle++
			for l, tx := range txs {
				if tx.AllocVC(pkts[l]) < 0 {
					continue // the previous packet is still crossing
				}
				for s, typ := range flitTypes {
					tx.Accept(noc.Flit{Type: typ, Pkt: pkts[l], Seq: s}, 0, cycle)
				}
				sent += noc.DataPacketFlits
			}
			b.Tick(cycle)
		}
	})
	got := 0
	for _, s := range sinks {
		got += s.flits
	}
	if inFlight := sent - got; inFlight < 0 || inFlight > senders*noc.DataPacketFlits {
		return 0, fmt.Errorf("dtdma microbenchmark: %d flits sent, %d received", sent, got)
	}
	return ns, nil
}

// eventLoad keeps a fixed number of events outstanding on an engine: each
// fired event schedules the next, at a delay from a table mixing the
// machine's latencies — 1-8-cycle tag and bank steps, 9-64-cycle network
// round trips, and 256-300-cycle DRAM fetches beyond the wheel's horizon.
type eventLoad struct {
	e      *sim.Engine
	delays []uint64
	fired  int
}

func (l *eventLoad) HandleEvent(uint8, any) {
	l.e.AfterEvent(l.delays[l.fired%len(l.delays)], l, 0, nil)
	l.fired++
}

// engineEvents times Engine.AfterEvent plus the Run loop that fires the
// events, per event.
func engineEvents(seed uint64, events int) float64 {
	rng := rand.New(rand.NewSource(int64(seed)))
	l := &eventLoad{e: sim.NewEngine(), delays: make([]uint64, 4096)}
	for i := range l.delays {
		switch r := rng.Float64(); {
		case r < 0.6:
			l.delays[i] = 1 + uint64(rng.Intn(8))
		case r < 0.9:
			l.delays[i] = 9 + uint64(rng.Intn(56))
		default:
			l.delays[i] = 256 + uint64(rng.Intn(45))
		}
	}
	for i := 0; i < 1024; i++ {
		l.e.AfterEvent(l.delays[i], l, 0, nil)
	}
	var ns []float64
	for i := 0; i < benchReps; i++ {
		before := l.fired
		t0 := time.Now()
		for l.fired-before < events {
			l.e.Run(64)
		}
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(l.fired-before))
	}
	return median(ns)
}

// refSink keeps the compiler from discarding Generator.Next calls.
var refSink trace.Ref

// generatorNext times trace.Generator.Next for one mgrid core.
func generatorNext(seed uint64, refs int) float64 {
	p, _ := trace.ProfileByName("mgrid", 8)
	g := trace.NewGenerator(p, 0, seed)
	return timeReps(refs, func() {
		for i := 0; i < refs; i++ {
			refSink = g.Next()
		}
	})
}

// serveLayers splits the serving tier's costs. For a cache hit it times
// the handler alone (ServeHTTP into a recorder, no TCP) against the same
// request over loopback HTTP, alternating the two. For each miss it splits
// the latency into the runner's simulation loop, as the job's own profile
// reports it, and everything else: building and warming the machine,
// queueing, encoding and HTTP.
func serveLayers(o opts, hits, misses int) (map[string]float64, error) {
	d, err := startDaemon()
	if err != nil {
		return nil, err
	}
	defer d.close()
	req := jobRequest(o, 0)
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	if _, err := d.submit(req); err != nil {
		return nil, err
	}
	var handler, roundTrip []float64
	size := 0
	for i := 0; i < hits; i++ {
		rec := httptest.NewRecorder()
		hreq := httptest.NewRequest(http.MethodPost, "/jobs?wait=1", bytes.NewReader(body))
		t0 := time.Now()
		d.srv.Handler().ServeHTTP(rec, hreq)
		handler = append(handler, time.Since(t0).Seconds()*1e6)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "hit" {
			return nil, fmt.Errorf("serve microbenchmark: handler answered %d, X-Cache %q", rec.Code, rec.Header().Get("X-Cache"))
		}
		size = rec.Body.Len()
		r, err := d.submit(req)
		if err != nil {
			return nil, err
		}
		if r.cache != "hit" {
			return nil, fmt.Errorf("serve microbenchmark: X-Cache %q over HTTP, want hit", r.cache)
		}
		roundTrip = append(roundTrip, r.latency.Seconds()*1e6)
	}
	out := map[string]float64{
		"serve.handler_us":     median(handler),
		"serve.http_us":        median(roundTrip) - median(handler),
		"serve.hit_body_bytes": float64(size),
	}

	var loop, overhead, sampler []float64
	for i := 1; i <= misses; i++ {
		r, err := d.submit(jobRequest(o, i))
		if err != nil {
			return nil, err
		}
		var res core.Results
		if err := json.Unmarshal(r.status.Results, &res); err != nil {
			return nil, err
		}
		p := res.Profile
		if p == nil {
			return nil, fmt.Errorf("serve microbenchmark: job results carry no profile")
		}
		samplerSeconds := 0.0
		for _, ph := range p.Phases {
			if ph.Phase == "sampler" {
				samplerSeconds = ph.Seconds
			}
		}
		loop = append(loop, p.WallSeconds*1e3)
		overhead = append(overhead, r.latency.Seconds()*1e3-p.WallSeconds*1e3)
		sampler = append(sampler, ratio(samplerSeconds*1e9, float64(p.Cycles)))
	}
	out["runner.loop_ms"] = median(loop)
	out["serve.miss_overhead_ms"] = median(overhead)
	out["obs.sampler_ns_per_cycle"] = median(sampler)
	return out, nil
}
