package core

import (
	"cmp"
	"fmt"
	"io"

	"repro/internal/config"
	"repro/internal/digest"
	"repro/internal/dtm"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/thermal"
)

// Instruments is the one instrumentation spec: which observers a run
// attaches, as plain values. The zero value attaches nothing and costs
// nothing. runner.Job and the daemon's job request and cache identity
// embed it, so its JSON names are the wire names. Profile measures the
// host, not the chip, so it has no wire name and never splits a cache
// entry. Every observer is non-perturbing: Results, stripped of the
// reports the observers add, are bit-identical with any of them attached.
type Instruments struct {
	// SampleInterval attaches the interval metrics sampler, one row every
	// SampleInterval cycles (see attachSampler for the columns).
	SampleInterval uint64 `json:"sample_interval,omitempty"`
	// ThermalInterval attaches the activity-driven power/thermal
	// pipeline, one transient RC step every ThermalInterval cycles;
	// Results gains Thermal. On a managed machine (Cfg.DTMActive) the DTM
	// controller rides the same tracker and Results gains DTM as well.
	ThermalInterval uint64 `json:"thermal_interval,omitempty"`
	// DigestInterval attaches the state-digest recorder, one snapshot
	// every DigestInterval cycles; Results gains Digests.
	DigestInterval uint64 `json:"digest_interval,omitempty"`
	// RecordSpans attaches the transaction span recorder; Results gains
	// the latency Breakdown.
	RecordSpans bool `json:"record_spans,omitempty"`
	// Profile attaches the host-side phase profiler; Results gains
	// Profile.
	Profile bool `json:"-"`
}

// Instrument attaches the observers that in requests. It is the one
// place that decides when each observer attaches and in what order.
//
// Spans and the profiler attach at once. Spans must ride the
// transactions still in flight at ResetStats, so request them before the
// settle run; the profiler attributes host time from attachment on.
//
// The window instruments attach in a fixed order, because tickers run in
// registration order and the later ones read the earlier ones: thermal
// (with the DTM controller on a managed machine), then digests, whose
// walker folds the thermal grid, then the sampler, which carries the
// thermal columns. Requested before Start they attach at the next
// ResetStats, so they cover exactly the measurement window; requested
// after Start they attach at once. An observer already attached stays as
// it is.
//
// Instrument attaches nothing and returns an error when the request
// cannot be honoured: a managed machine with no thermal interval
// requested or attached, or with DTM strings that do not parse
// (CheckDTM), or thermal requested once a sampler is attached or
// pending, which would lose the sampler's thermal columns. Digests read
// no other observer, so they may attach after the sampler.
func (s *System) Instrument(in Instruments) error {
	thermal := in.ThermalInterval > 0 || s.thermalT != nil || s.pending.ThermalInterval > 0
	if err := CheckDTM(s.Cfg, thermal); err != nil {
		return err
	}
	if in.ThermalInterval > 0 && (s.sampler != nil || s.pending.SampleInterval > 0) {
		return fmt.Errorf("core: the thermal instrument must be requested before the sampler, which carries its columns")
	}
	if in.RecordSpans && s.spans == nil {
		s.spans = obs.NewSpanRecorder()
	}
	if in.Profile {
		s.AttachProfile()
	}
	if s.started {
		s.attachWindow(in)
		return nil
	}
	p := &s.pending
	p.ThermalInterval = cmp.Or(in.ThermalInterval, p.ThermalInterval)
	p.DigestInterval = cmp.Or(in.DigestInterval, p.DigestInterval)
	p.SampleInterval = cmp.Or(in.SampleInterval, p.SampleInterval)
	return nil
}

// attachWindow attaches the requested window instruments in their fixed
// order (see Instrument, which has checked the request).
func (s *System) attachWindow(in Instruments) {
	if in.ThermalInterval > 0 && s.thermalT == nil {
		s.attachThermal(in.ThermalInterval)
	}
	if in.DigestInterval > 0 && s.digestRec == nil {
		s.attachDigest(in.DigestInterval)
	}
	if in.SampleInterval > 0 && s.sampler == nil {
		s.attachSampler(in.SampleInterval)
	}
}

// CheckDTM reports why a managed config's DTM could not run: it has no
// thermal loop to ride (thermal is false), or its policy (dtm.ParsePolicy)
// or duty cycle (dtm.ParseDuty) does not parse. An unmanaged config
// passes. Instrument runs it before attaching anything, so ResetStats
// never fails, and runner.Job.Validate before a job starts.
func CheckDTM(cfg config.Config, thermal bool) error {
	if !cfg.DTMActive() {
		return nil
	}
	if !thermal {
		return fmt.Errorf("core: DTMPolicy %q needs a thermal interval (DTM rides the thermal loop)", cfg.DTMPolicy)
	}
	if _, err := dtm.ParsePolicy(cfg.DTMPolicy); err != nil {
		return err
	}
	_, _, err := dtm.ParseDuty(cfg.DutyCycle)
	return err
}

// Sampler returns the attached metrics sampler, or nil.
func (s *System) Sampler() *obs.Sampler { return s.sampler }

// Spans returns the attached span recorder, or nil.
func (s *System) Spans() *obs.SpanRecorder { return s.spans }

// Profiler returns the attached host-side phase profiler, or nil.
func (s *System) Profiler() *prof.Recorder { return s.hostProf }

// DigestRecorder returns the attached state-digest recorder, or nil.
func (s *System) DigestRecorder() *digest.Recorder { return s.digestRec }

// AttachTracer routes probe events into the given sink (nil detaches the
// tracer). It composes with an attached thermal pipeline: with both
// active, every event tees into the trace sink and the energy accountant.
func (s *System) AttachTracer(sink obs.Sink) {
	s.traceSink = sink
	s.refreshProbe()
}

// attachThermal attaches the activity→power→temperature pipeline: an
// energy accountant (Table-1-calibrated per-event charging, fed by the
// same probe events the tracer sees) and a transient RC thermal grid
// stepped every interval cycles, with each core's instruction delta
// charged at its cell. On a managed machine it then closes the loop
// (attachDTM).
func (s *System) attachThermal(interval uint64) {
	tt := obs.NewThermalTracker(s.Top.Dim, thermal.DefaultParams(), power.TelemetryModel(), interval)
	for _, c := range s.CPUs {
		c := c
		tt.AddCPU(c.pos, func() uint64 { return c.instrs })
	}
	s.thermalT = tt
	s.refreshProbe()
	s.Engine.Register(tt)
	if s.Cfg.DTMActive() {
		s.attachDTM()
	}
}

// attachDTM closes the thermal loop: it builds a dtm.Controller from the
// config's DTM fields (DTMPolicy, TripTempC, DutyCycle) and wires it as
// the thermal tracker's actor plus into every actuator path — migration
// targeting (veto), bank access (drowsy wakeups), CPU issue
// (duty-cycling), and, when the reroute policy is enabled, the fabric's
// pillar selection.
func (s *System) attachDTM() {
	// Instrument has run CheckDTM, so the strings parse.
	pol, _ := dtm.ParsePolicy(s.Cfg.DTMPolicy)
	on, period, _ := dtm.ParseDuty(s.Cfg.DutyCycle)
	prm := thermal.DefaultParams()
	ctl := dtm.NewController(s.Top.Dim, pol, dtm.Options{
		TripC:          s.Cfg.TripTempC,
		DutyOn:         on,
		DutyPeriod:     period,
		CellLeakW:      prm.CellPowerW,
		DrowsyLeakFrac: power.DrowsyLeakageFraction,
		WakeupCycles:   power.DrowsyWakeupCycles,
		ClockHz:        power.ClockHz,
	})
	for _, c := range s.CPUs {
		ctl.AddCPU(c.pos)
	}
	s.thermalT.SetActor(ctl)
	if pol.Has(dtm.PolicyReroute) {
		// Install the pillar bias only when the policy wants it, so the
		// other policies keep the fabric's unbiased selection path.
		s.Fab.SetPillarPenalty(ctl.PillarPenalty, ctl.NotePillarDiversion)
	}
	s.dtm = ctl
}

// WriteThermalMap renders per-layer ASCII temperature maps of the attached
// thermal tracker's grid, marking CPU cells. It errors when no thermal
// pipeline is attached.
func (s *System) WriteThermalMap(w io.Writer) error {
	if s.thermalT == nil {
		return fmt.Errorf("core: no thermal pipeline attached (request Instruments.ThermalInterval)")
	}
	return thermal.WriteHeatMap(w, s.thermalT.Grid(), s.Top.CPUs)
}

// refreshProbe rebuilds the probe from the attached tracer and thermal
// sinks (either, both teed, or detached).
func (s *System) refreshProbe() {
	var sink obs.Sink
	if s.thermalT != nil {
		sink = s.thermalT.Sink()
	}
	s.obsProbe = obs.NewProbe(obs.Tee(s.traceSink, sink))
	s.Fab.SetProbe(s.obsProbe)
}

// AttachProfile attaches the host-side phase profiler ("flight
// recorder"), as Instruments.Profile does: from now on every Engine.Run
// is wall-clock-attributed
// across the loop's phases — CPU pipeline events vs protocol/cluster
// events in the engine drain (split by typed event kind), the network
// tick, the thermal and sampler tickers, and the engine's own bookkeeping
// as the residual — plus a rolling cycles/sec window series and
// allocation deltas. Results gains the Profile report.
//
// Measurement is host-side only: monotonic clock deltas folded into
// value-typed accumulators, nothing fed back into simulation state — so
// an attached run is bit-identical to a detached one (the contract is
// pinned by TestProfileDoesNotPerturb). Attach any time; idempotent
// (subsequent calls return the same recorder). Attach before Warm to
// profile the whole run, since attribution starts at attachment.
func (s *System) AttachProfile() *prof.Recorder {
	if s.hostProf != nil {
		return s.hostProf
	}
	rec := prof.NewRecorder()
	s.hostProf = rec
	s.Engine.SetProfiler(rec, eventPhase, tickerPhase)
	return rec
}

// eventPhase classifies an engine event for the profiler: the CPU
// pipeline kinds are the core's fetch-execute loop; everything else —
// cluster serves, migrations, replicas and the memory path — is protocol
// work.
func eventPhase(kind uint8) prof.Phase {
	switch kind {
	case evCPUStep, evCPUAccess, evCPUIfetch, evCPUData, evCPULoadMiss:
		return prof.PhaseCPU
	}
	return prof.PhaseProtocol
}

// tickerPhase classifies a registered ticker for the profiler.
func tickerPhase(t sim.Ticker) prof.Phase {
	switch t.(type) {
	case *fabric.Fabric:
		return prof.PhaseNet
	case *obs.ThermalTracker:
		return prof.PhaseThermal
	case *obs.Sampler:
		return prof.PhaseSampler
	}
	return prof.PhaseOther
}

// StatsRegistry returns the machine's counter registry: the live Metrics
// fields and raw fabric traffic counters exposed through the stats.Set
// Names/Value interface. The registry is built once and shared — the
// sampler's per-interval deltas read it, and the serving tier snapshots
// it (stats.Set.Snapshot, called between engine runs on the simulation's
// goroutine) to publish per-job counters on /metrics. The hot paths keep
// incrementing the Metrics fields directly: Metrics.Reset assigns through
// the pointer receiver, so the registered addresses stay live across
// ResetStats.
func (s *System) StatsRegistry() *stats.Set {
	if s.statsReg != nil {
		return s.statsReg
	}
	reg := stats.NewSet()
	reg.Register("l2_accesses", &s.M.L2Accesses)
	reg.Register("l2_hits", &s.M.L2Hits)
	reg.Register("l2_misses", &s.M.L2Misses)
	reg.Register("migrations", &s.M.Migrations)
	reg.Register("invalidations", &s.M.Invalidations)
	reg.Register("evictions", &s.M.Evictions)
	reg.Register("mem_reads", &s.M.MemReads)
	reg.Register("mem_writes", &s.M.MemWrites)
	reg.Register("probes_sent", &s.M.ProbesSent)
	// Raw traffic totals: flit_hops is a live fabric counter; bus_flits
	// exists only as a sum over the pillar buses, so it registers as a
	// derived-counter closure.
	reg.Register("flit_hops", &s.Fab.FlitHops)
	reg.RegisterFunc("bus_flits", s.Fab.BusFlits)
	s.statsReg = reg
	return reg
}

// attachSampler registers a periodic metrics sampler with the engine:
// every interval cycles it appends one row of interval metrics — counter
// deltas from a stats.Set registry backed by the live Metrics fields, the
// L2 hit-latency mean and P95 over the interval, mesh router utilization,
// and per-pillar bus occupancy. The sampler keeps accumulating until the
// simulation stops; read it with Sampler().Series().
//
// Column semantics:
//
//	l2_accesses, l2_hits, l2_misses, migrations, invalidations,
//	evictions, mem_reads, mem_writes, probes_sent
//	    — events in the interval (deltas of the cumulative counters, so
//	      "migrations" is the migration rate per interval)
//	hit_lat_mean, hit_lat_p95
//	    — over the hits completing inside the interval (0 with no hits)
//	router_util
//	    — flits forwarded per router per cycle, averaged over the mesh
//	bus<N>_occ
//	    — fraction of the interval's cycles pillar bus N carried a flit
func (s *System) attachSampler(interval uint64) {
	sm := obs.NewSampler(interval)
	sm.AddCounterSet(s.StatsRegistry())

	// L2 hit latency over the interval: deltas of the cumulative
	// accumulator. ResetStats (which zeroes the accumulator) restarts the
	// window instead of producing a negative delta.
	var lastSum, lastCount uint64
	sm.AddGauge("hit_lat_mean", func(uint64) float64 {
		sum, count := s.M.HitLatency.Sum(), s.M.HitLatency.Count()
		if count < lastCount {
			lastSum, lastCount = 0, 0
		}
		dSum, dCount := sum-lastSum, count-lastCount
		lastSum, lastCount = sum, count
		if dCount == 0 {
			return 0
		}
		return float64(dSum) / float64(dCount)
	})

	// Interval P95 from the hit-latency histogram's bucket deltas. The
	// open-ended last bucket reports the cumulative observed maximum (the
	// per-interval maximum is not tracked).
	lastBuckets := make([]uint64, s.M.HitHist.NumBuckets())
	var lastHistTotal uint64
	sm.AddGauge("hit_lat_p95", func(uint64) float64 {
		h := s.M.HitHist
		nb := h.NumBuckets()
		if nb != len(lastBuckets) || h.Total() < lastHistTotal {
			// The histogram was replaced by ResetStats; restart the window.
			lastBuckets = make([]uint64, nb)
		}
		lastHistTotal = h.Total()
		deltas := make([]uint64, nb)
		for i := 0; i < nb; i++ {
			c := h.Bucket(i)
			deltas[i] = c - lastBuckets[i]
			lastBuckets[i] = c
		}
		return float64(stats.PercentileFromBuckets(deltas, h.Width(), h.Max(), 95))
	})

	// Mesh utilization: flits forwarded per router per cycle.
	nodes := float64(s.Top.Dim.Nodes())
	var lastFwd uint64
	sm.AddGauge("router_util", func(uint64) float64 {
		cur := s.Fab.ForwardedFlits()
		d := cur - lastFwd
		lastFwd = cur
		return float64(d) / (nodes * float64(interval))
	})

	// Per-pillar bus occupancy: busy cycles / interval cycles.
	for i, b := range s.Fab.Buses() {
		b := b
		var lastBusy uint64
		sm.AddGauge(fmt.Sprintf("bus%d_occ", i), func(uint64) float64 {
			d := b.BusyCycles - lastBusy
			lastBusy = b.BusyCycles
			return float64(d) / float64(interval)
		})
	}

	// Thermal telemetry columns, present only when the pipeline is
	// attached (Instrument attaches it first, so the tracker ticks — and
	// flushes its window — before the sampler reads it):
	// per-component window power, per-layer peak/mean temperature, and
	// the hotspot coordinates.
	if tt := s.thermalT; tt != nil {
		comps := []struct {
			name string
			c    obs.PowerComponent
		}{
			{"p_cpu_w", obs.PowCPU},
			{"p_net_w", obs.PowNetwork},
			{"p_bus_w", obs.PowBus},
			{"p_tag_w", obs.PowTags},
			{"p_bank_w", obs.PowBanks},
			{"p_mig_w", obs.PowMigration},
		}
		sm.AddGauge("power_w", func(uint64) float64 {
			w := tt.WindowPowerW()
			sum := 0.0
			for _, v := range w {
				sum += v
			}
			return sum
		})
		for _, cc := range comps {
			cc := cc
			sm.AddGauge(cc.name, func(uint64) float64 { return tt.WindowPowerW()[cc.c] })
		}
		for l := 0; l < s.Top.Dim.Layers; l++ {
			l := l
			sm.AddGauge(fmt.Sprintf("t_peak_l%d", l), func(uint64) float64 { return tt.LayerProfileNow(l).PeakC })
			sm.AddGauge(fmt.Sprintf("t_mean_l%d", l), func(uint64) float64 { return tt.LayerProfileNow(l).AvgC })
		}
		sm.AddGauge("t_hot_x", func(uint64) float64 { c, _ := tt.Hotspot(); return float64(c.X) })
		sm.AddGauge("t_hot_y", func(uint64) float64 { c, _ := tt.Hotspot(); return float64(c.Y) })
		sm.AddGauge("t_hot_layer", func(uint64) float64 { c, _ := tt.Hotspot(); return float64(c.Layer) })
		sm.AddGauge("t_hot_c", func(uint64) float64 { _, t := tt.Hotspot(); return t })
	}

	s.Engine.Register(sm)
	s.sampler = sm
}
