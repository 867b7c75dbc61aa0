package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/prof"
	"repro/internal/trace"
)

// simSpec is one simulated machine and the fixed amount of simulated time
// a repetition runs on it. Repetitions are identical computations, so each
// must produce the same Results; the run repeats them until its time is up.
type simSpec struct {
	name   string
	cfg    config.Config
	bench  string
	settle uint64 // cycles run between Start and ResetStats
	chunk  uint64 // cycles per timed Run call: one operation
	chunks int    // timed Run calls per repetition
}

var (
	// stackedMgrid is the 4-layer machine with vertically stacked CPUs:
	// the network dominates its loop time and it migrates the most.
	stackedMgrid = simSpec{"stacked-mgrid", stackedConfig(), "mgrid", 50_000, 20_000, 20}
	// snucaEquake is the static 2-layer scheme: CPU steps and the engine
	// dominate, and no line ever migrates.
	snucaEquake = simSpec{"snuca-equake", config.Default(config.CMPSNUCA3D), "equake", 50_000, 100_000, 30}
	// headlineMgrid is the paper's default CMP-DNUCA-3D machine, the one
	// the daemon's jobs run. Traced runs of the workloads that do not
	// simulate in this process take their per-layer simulator metrics from
	// one repetition of it.
	headlineMgrid = simSpec{"headline-mgrid", config.Default(config.CMPDNUCA3D), "mgrid", 20_000, 20_000, 10}
)

func stackedConfig() config.Config {
	c := config.Default(config.CMPDNUCA3D)
	c.Layers = 4
	c.StackCPUs = true
	return c
}

func (sp simSpec) scaled(o opts) simSpec {
	if o.quick {
		sp.settle /= 1000
		sp.chunk /= 1000
	}
	return sp
}

// rep is what one repetition measured.
type rep struct {
	newSystem, warm, setup time.Duration
	chunks                 []time.Duration
	results                core.Results
	invariant              error // CheckSingleCopy's verdict after the run
}

// runRep builds, warms and starts the machine (the set-up), settles it,
// then times each measured Run call. With profile set it attaches the host
// profiler for the measured window.
func runRep(sp simSpec, seed uint64, profile bool, log *spanLog) (rep, error) {
	bench, ok := trace.ProfileByName(sp.bench, sp.cfg.NumCPUs)
	if !ok {
		return rep{}, fmt.Errorf("unknown benchmark %q", sp.bench)
	}
	// Every repetition starts from a collected heap, as a fresh process
	// would, so the previous machine's garbage is not charged to this one.
	runtime.GC()
	root := log.begin(sp.name, 0)
	defer log.end(root)

	var r rep
	t0 := time.Now()
	id := log.begin("core.NewSystem", root)
	sys, err := core.NewSystem(sp.cfg, bench, seed)
	log.end(id)
	if err != nil {
		return r, err
	}
	defer sys.Close()
	t1 := time.Now()
	id = log.begin("core.System.Warm", root)
	sys.Warm(seed)
	log.end(id)
	t2 := time.Now()
	sys.Start()
	r.newSystem, r.warm, r.setup = t1.Sub(t0), t2.Sub(t1), time.Since(t0)

	id = log.begin("core.System.Run settle", root)
	sys.Run(sp.settle)
	log.end(id)
	sys.ResetStats()
	if profile {
		sys.AttachProfile()
	}
	for i := 0; i < sp.chunks; i++ {
		id = log.begin("core.System.Run", root)
		t := time.Now()
		sys.Run(sp.chunk)
		r.chunks = append(r.chunks, time.Since(t))
		log.end(id)
	}
	r.results = sys.Results()
	id = log.begin("core.System.CheckSingleCopy", root)
	r.invariant = sys.CheckSingleCopy()
	log.end(id)
	return r, nil
}

// runSim repeats a simulation until the run's time is up. Each measured
// Run call is one operation; the work is simulated cycles.
func runSim(sp simSpec, o opts) (*measurement, error) {
	sp = sp.scaled(o)
	m := &measurement{}
	var reps []rep
	for deadline := time.Now().Add(o.seconds); len(reps) == 0 || time.Now().Before(deadline); {
		r, err := runRep(sp, o.seed, o.spans != nil, o.spans)
		if err != nil {
			return nil, err
		}
		n := len(reps)
		reps = append(reps, r)
		m.setup = append(m.setup, r.setup)
		m.attempted += len(r.chunks)
		switch digest, want := resultsDigest(r.results), sp.chunk*uint64(sp.chunks); {
		case r.invariant != nil:
			err = r.invariant
		case r.results.Cycles != want:
			err = fmt.Errorf("measured %d cycles, want %d", r.results.Cycles, want)
		case m.digest != "" && digest != m.digest:
			err = fmt.Errorf("Results differ from the first repetition's")
		default:
			m.digest = digest
		}
		if err != nil {
			m.fail(len(r.chunks), "repetition %d: %v", n, err)
			continue
		}
		m.ops = append(m.ops, r.chunks...)
		for _, d := range r.chunks {
			m.busy += d
		}
		m.work += float64(sp.chunk) * float64(len(r.chunks))
	}
	if o.spans != nil {
		m.layers = machineLayers(reps)
	}
	return m, nil
}

// probeMachine measures the simulator's layers on the headline machine for
// the workloads that do not run a simulation in this process.
func probeMachine(o opts) (map[string]float64, error) {
	r, err := runRep(headlineMgrid.scaled(o), o.seed, true, nil)
	if err != nil {
		return nil, err
	}
	if r.invariant != nil {
		return nil, fmt.Errorf("probe machine: %w", r.invariant)
	}
	return machineLayers([]rep{r}), nil
}

// machineLayers turns profiled repetitions into the simulator's per-layer
// metrics: host time and event counts per simulated cycle for each phase
// of the engine loop (internal/prof), exact traffic counts from Results,
// and the Go runtime's allocation and collection rates.
func machineLayers(reps []rep) map[string]float64 {
	var cycles, hops, busFlits, alloc, gcs float64
	var newSystem, warm []float64
	phase := map[string]prof.PhaseStat{}
	for _, r := range reps {
		p := r.results.Profile
		cycles += float64(p.Cycles)
		for _, ph := range p.Phases {
			s := phase[ph.Phase]
			s.Seconds += ph.Seconds
			s.Count += ph.Count
			phase[ph.Phase] = s
		}
		alloc += float64(p.Mem.AllocBytes)
		gcs += float64(p.Mem.NumGC)
		hops += float64(r.results.FlitHops)
		busFlits += float64(r.results.BusFlits)
		newSystem = append(newSystem, r.newSystem.Seconds()*1e3)
		warm = append(warm, r.warm.Seconds()*1e3)
	}
	netNs := (phase["net-serial"].Seconds + phase["net-sharded"].Seconds) * 1e9
	res := reps[0].results
	return map[string]float64{
		"core.new_system_ms":             median(newSystem),
		"core.warm_ms":                   median(warm),
		"core.cpu_ns_per_cycle":          ratio(phase["cpu"].Seconds*1e9, cycles),
		"core.cpu_events_per_cycle":      ratio(float64(phase["cpu"].Count), cycles),
		"core.protocol_ns_per_cycle":     ratio(phase["protocol"].Seconds*1e9, cycles),
		"core.protocol_events_per_cycle": ratio(float64(phase["protocol"].Count), cycles),
		"fabric.net_ns_per_cycle":        ratio(netNs, cycles),
		"fabric.flit_hops_per_cycle":     ratio(hops, cycles),
		"fabric.ns_per_flit_hop":         ratio(netNs, hops),
		"dtdma.bus_flits_per_cycle":      ratio(busFlits, cycles),
		"sim.engine_ns_per_cycle":        ratio(phase["engine"].Seconds*1e9, cycles),
		"core.l2_accesses":               float64(res.L2Accesses),
		"core.hits_per_probe":            ratio(float64(res.L2Hits), float64(res.ProbesSent)),
		"go.alloc_bytes_per_cycle":       ratio(alloc, cycles),
		"go.gc_per_mcycle":               ratio(gcs*1e6, cycles),
	}
}
