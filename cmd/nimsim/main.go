// Command nimsim runs a single Network-in-Memory simulation and prints the
// full measurement report: latency, IPC, migration, coherence, network
// traffic, and dynamic energy.
//
// Usage:
//
//	nimsim -scheme dnuca3d -bench mgrid
//	nimsim -scheme snuca3d -bench swim -layers 4 -measure 500000
//	nimsim -scheme dnuca3d -bench art -pillars 2
//	nimsim -scheme dnuca3d -bench mgrid -trace trace.json -metrics m.csv
//	nimsim -scheme dnuca3d -bench mgrid -breakdown -spans spans.json
//	nimsim -serve :8080    # simulation-as-a-service daemon (see cmd/nimsimd)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	nim "repro"
	"repro/internal/config"
	"repro/internal/power"
	"repro/internal/serve"
)

func main() {
	opts := machineOpts{scheme: "dnuca3d", bench: "mgrid", seed: 1}
	opts.register(flag.CommandLine)
	var (
		mix      = flag.String("mix", "", "multiprogrammed mix: comma-separated benchmarks, one per core (cycled)")
		traceIn  = flag.String("replay", "", "replay trace files instead of synthetic workloads: comma-separated, one per core (cycled)")
		asJSON   = flag.Bool("json", false, "emit the results as JSON instead of text")
		heatmap  = flag.Bool("heatmap", false, "print per-layer router utilization maps")
		busrep   = flag.Bool("buses", false, "print per-pillar bus utilization")
		warm     = flag.Uint64("warm", nim.DefaultOptions().WarmCycles, "settle cycles before measurement")
		measure  = flag.Uint64("measure", nim.DefaultOptions().MeasureCycles, "measurement window in cycles")
		traceOut = flag.String("trace", "", "write the measurement window's event trace as Chrome trace-event JSON (open in Perfetto)")
		traceBuf = flag.Int("tracebuf", 1_000_000, "event-trace ring capacity (oldest events drop beyond it)")
		spansOut = flag.String("spans", "", "write per-transaction latency spans as Chrome trace-event JSON (per-CPU Perfetto tracks)")
		brkdown  = flag.Bool("breakdown", false, "print the per-component L2 latency decomposition")
		metrics  = flag.String("metrics", "", "write interval metrics time series to this file (.trace.json for Perfetto counter tracks, .json for JSON, CSV otherwise)")
		interval = flag.Uint64("interval", 1_000, "metrics sampling period in cycles")
		thermal  = flag.Bool("thermal", false, "attach the activity-driven power/thermal pipeline and print the transient report")
		tmap     = flag.Bool("tmap", false, "print per-layer ASCII temperature maps (implies -thermal)")
		tinter   = flag.Uint64("tinterval", 1_000, "thermal step period in cycles")
		profile  = flag.Bool("profile", false, "attach the host-side phase profiler and print the wall-clock attribution table (non-perturbing: results are bit-identical)")
		profOut  = flag.String("proftrace", "", "write the profiler's host timeline as Chrome trace-event JSON (throughput + phase-share tracks; implies -profile)")
		digestIv = flag.Uint64("digest", 0, "fold a state digest every N cycles and print the per-subsystem chain digests (non-perturbing: results are bit-identical)")
		diverge  = flag.String("diverge", "", "run a variant of this configuration side by side (comma-separated k=v overrides: scheme, bench, seed, layers, pillars, l2, stack, dtm, trip, duty) and bisect the digest streams to the first divergent cycle and subsystem")
		version  = flag.Bool("version", false, "print build and host provenance, then exit")
		pprof    = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		srvAddr  = flag.String("serve", "", "run as the telemetry daemon on this address instead of a one-shot simulation (POST /jobs, SSE streams, /metrics, /healthz)")
	)
	flag.Parse()

	if *version {
		// The same provenance nimsim_build_info and the BENCH_*.json host
		// stamps carry, for humans pinning a measurement to a binary.
		fmt.Printf("nimsim %s\n", serve.BuildVersion())
		fmt.Printf("  go        %s\n", runtime.Version())
		fmt.Printf("  platform  %s/%s\n", runtime.GOOS, runtime.GOARCH)
		fmt.Printf("  cpus      %d (GOMAXPROCS %d)\n", runtime.NumCPU(), runtime.GOMAXPROCS(0))
		return
	}
	if *srvAddr != "" {
		runDaemon(*srvAddr, *pprof, *interval)
		return
	}
	if *pprof != "" {
		// A dedicated mux: the profiler never registers on
		// http.DefaultServeMux, so no other handler in the process can
		// silently inherit it.
		go func() {
			if err := http.ListenAndServe(*pprof, serve.PprofMux()); err != nil {
				fmt.Fprintf(os.Stderr, "nimsim: pprof: %v\n", err)
			}
		}()
	}

	// Zero periods would reach the observers' constructors, which panic;
	// -digest 0 means off and -interval is only read with -metrics.
	wantThermal := *thermal || *tmap || opts.DTMPolicy != ""
	switch {
	case *metrics != "" && *interval == 0:
		fatalf("-interval must be >= 1")
	case wantThermal && *tinter == 0:
		fatalf("-tinterval must be >= 1")
	case (*traceOut != "" || *spansOut != "") && *traceBuf < 1:
		fatalf("-tracebuf must be >= 1")
	}

	cfg, err := opts.Build(opts.scheme)
	if err != nil {
		fatalf("%v", err)
	}

	if *diverge != "" {
		// The two runs are plain runner jobs on one benchmark: no mix,
		// replay or tracer, and no report but the diverge report. Refuse
		// the flags that need them rather than silently dropping them.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "mix", "replay", "metrics", "trace", "spans", "breakdown",
				"profile", "proftrace", "heatmap", "buses", "tmap":
				fatalf("-%s cannot be used with -diverge", f.Name)
			}
		})
		runDiverge(opts, *diverge, *warm, *measure, *tinter, *thermal, *digestIv, *asJSON)
		return
	}

	sim, err := buildSimulation(cfg, opts.bench, *mix, *traceIn, opts.seed)
	if err != nil {
		fatalf("%v", err)
	}
	// One instrumentation spec from the flags. Spans and the profiler
	// attach now, so spans ride the transactions in flight across the
	// stats reset and the profile covers every cycle simulated from here
	// on; the window instruments attach at ResetStats, so they cover
	// exactly the measured cycles. None of them perturbs the results.
	in := nim.Instruments{
		DigestInterval: *digestIv,
		RecordSpans:    *spansOut != "" || *brkdown,
		Profile:        *profile || *profOut != "",
	}
	if *metrics != "" {
		in.SampleInterval = *interval
	}
	if wantThermal {
		in.ThermalInterval = *tinter
	}
	if err := sim.Instrument(in); err != nil {
		fatalf("%v", err)
	}
	sim.Start()
	sim.Run(*warm)
	sim.ResetStats()
	// The event trace attaches after the settle window too.
	var ring *nim.TraceRing
	if *traceOut != "" {
		ring = nim.NewTraceRing(*traceBuf)
		sim.AttachTracer(ring)
	}
	var spanRing *nim.TraceRing
	if *spansOut != "" {
		spanRing = nim.NewTraceRing(*traceBuf)
		sim.Spans().SetSink(spanRing)
	}
	sim.Run(*measure)
	r := sim.Results()

	if ring != nil {
		if err := writeTrace(*traceOut, ring); err != nil {
			fatalf("%v", err)
		}
	}
	if spanRing != nil {
		if err := writeTrace(*spansOut, spanRing); err != nil {
			fatalf("%v", err)
		}
	}
	if sampler := sim.Sampler(); sampler != nil {
		ts := sampler.Series()
		if ring != nil {
			// Parity with the Chrome-trace export: mark the series when the
			// companion event trace is partial.
			ts.DroppedEvents = ring.Dropped()
		}
		if err := writeMetrics(*metrics, ts); err != nil {
			fatalf("%v", err)
		}
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r); err != nil {
			fatalf("%v", err)
		}
		if err := sim.CheckInvariants(); err != nil {
			fatalf("invariant violation: %v", err)
		}
		return
	}

	fmt.Printf("scheme      %s\n", r.Scheme)
	fmt.Printf("benchmark   %s\n", r.Benchmark)
	fmt.Printf("cycles      %d (after %d settle cycles)\n", r.Cycles, *warm)
	fmt.Printf("\nperformance\n")
	fmt.Printf("  instructions   %12d\n", r.Instructions)
	fmt.Printf("  IPC            %12.3f (per core)\n", r.IPC)
	fmt.Printf("\nL2 cache\n")
	fmt.Printf("  accesses       %12d\n", r.L2Accesses)
	fmt.Printf("  hits           %12d\n", r.L2Hits)
	fmt.Printf("  misses         %12d\n", r.L2Misses)
	fmt.Printf("  avg hit lat    %12.1f cycles\n", r.AvgL2HitLatency)
	if r.AvgPrivateHitLatency > 0 {
		fmt.Printf("  private hits   %12.1f cycles\n", r.AvgPrivateHitLatency)
	}
	if r.AvgSharedHitLatency > 0 {
		fmt.Printf("  shared hits    %12.1f cycles\n", r.AvgSharedHitLatency)
	}
	if r.AvgCodeHitLatency > 0 {
		fmt.Printf("  code hits      %12.1f cycles\n", r.AvgCodeHitLatency)
	}
	fmt.Printf("  hit lat P50    %12d cycles\n", r.P50L2HitLatency)
	fmt.Printf("  hit lat P95    %12d cycles\n", r.P95L2HitLatency)
	fmt.Printf("  hit lat P99    %12d cycles\n", r.P99L2HitLatency)
	if r.L2Misses > 0 {
		fmt.Printf("  avg miss lat   %12.1f cycles\n", r.AvgL2MissLatency)
	}
	fmt.Printf("\nmanagement\n")
	fmt.Printf("  migrations     %12d\n", r.Migrations)
	fmt.Printf("  probes sent    %12d\n", r.ProbesSent)
	fmt.Printf("  step-2 search  %12d\n", r.Step2Searches)
	fmt.Printf("  invalidations  %12d\n", r.Invalidations)
	fmt.Printf("  back-invals    %12d\n", r.BackInvals)
	fmt.Printf("  evictions      %12d\n", r.Evictions)
	fmt.Printf("  memory reads   %12d\n", r.MemReads)
	fmt.Printf("  memory writes  %12d\n", r.MemWrites)
	fmt.Printf("\nnetwork\n")
	fmt.Printf("  flit-hops      %12d\n", r.FlitHops)
	fmt.Printf("  bus flits      %12d\n", r.BusFlits)

	e := power.Estimate(r.FlitHops, r.BusFlits, r.L2Hits, r.MemReads+r.Migrations, r.ProbesSent, r.Migrations)
	fmt.Printf("\ndynamic energy (window)\n")
	fmt.Printf("  network        %12.1f nJ\n", e.NetworkPJ/1000)
	fmt.Printf("  pillar buses   %12.1f nJ\n", e.BusPJ/1000)
	fmt.Printf("  banks          %12.1f nJ\n", e.BanksPJ/1000)
	fmt.Printf("  tags           %12.1f nJ\n", e.TagsPJ/1000)
	fmt.Printf("  migration      %12.1f nJ\n", e.MigrationPJ/1000)
	fmt.Printf("  total          %12.1f nJ\n", e.TotalPJ()/1000)

	if r.Thermal != nil {
		t := r.Thermal
		fmt.Printf("\ntransient thermal (%d steps of %d cycles)\n", t.Steps, t.IntervalCycles)
		fmt.Printf("  peak           %12.2f C at (%d,%d,L%d), cycle %d\n",
			t.PeakC, t.PeakX, t.PeakY, t.PeakLayer, t.PeakCycle)
		fmt.Printf("  final          %12.2f C peak, %.2f C mean\n", t.FinalPeakC, t.FinalMeanC)
		fmt.Printf("  layer gradient %12.2f C\n", t.GradientC)
		fmt.Printf("  above %.0f C    %12d cycles\n", t.ThresholdC, t.CyclesAboveThreshold)
		for _, l := range t.Layers {
			fmt.Printf("  layer %d        %12.2f C peak, %.2f C mean\n", l.Layer, l.PeakC, l.MeanC)
		}
		fmt.Printf("  dynamic power  %12.3f W avg (%.1f nJ charged: net %.1f, bus %.1f, tags %.1f, banks %.1f, mig %.1f, cpu %.1f)\n",
			t.AvgPowerW, t.Energy.TotalPJ/1000, t.Energy.NetworkPJ/1000, t.Energy.BusPJ/1000,
			t.Energy.TagsPJ/1000, t.Energy.BanksPJ/1000, t.Energy.MigrationPJ/1000, t.Energy.CPUPJ/1000)
	}
	if r.DTM != nil {
		d := r.DTM
		fmt.Printf("\ndynamic thermal management (policy %s, trip %.1f C, release %.1f C)\n",
			d.Policy, d.TripC, d.ReleaseC)
		fmt.Printf("  trips          %12d engagements (first at cycle %d)\n", d.TripEngagements, d.FirstTripCycle)
		fmt.Printf("  hot cells      %12d now, %d cell-steps total\n", d.HotCells, d.HotCellSteps)
		fmt.Printf("  peak           %12.2f C (%+.2f C vs trip)\n", d.PeakC, d.PeakOverTripC)
		fmt.Printf("  migr vetoes    %12d\n", d.MigrationVetoes)
		fmt.Printf("  bank wakeups   %12d (%d cycles added, %.1f nJ leakage saved)\n",
			d.BankWakeups, d.BankWakeupCycles, d.DrowsyLeakSavedPJ/1000)
		fmt.Printf("  duty stalls    %12d (pattern %d/%d)\n", d.ThrottleStalls, d.DutyOn, d.DutyPeriod)
		fmt.Printf("  pillar divert  %12d\n", d.PillarDiversions)
	}
	if *tmap {
		fmt.Println()
		if err := sim.WriteThermalMap(os.Stdout); err != nil {
			fatalf("%v", err)
		}
	}

	if *brkdown && r.Breakdown != nil {
		fmt.Printf("\nL2 latency decomposition\n")
		if err := r.Breakdown.WriteTable(os.Stdout); err != nil {
			fatalf("%v", err)
		}
	}

	if r.Profile != nil {
		fmt.Println()
		r.Profile.WriteTable(os.Stdout)
	}

	if r.Digests != nil {
		d := r.Digests
		fmt.Printf("\nstate digest (every %d cycles, %d records)\n", d.Interval, d.Records)
		fmt.Printf("  run            %s\n", d.Digest)
		for _, l := range d.Lanes {
			fmt.Printf("  %-12s   %s\n", l.Lane, l.Digest)
		}
	}

	if *heatmap {
		fmt.Println()
		sim.WriteHeatmap(os.Stdout)
	}
	if *busrep {
		fmt.Println()
		sim.WriteBusReport(os.Stdout)
	}

	if *profOut != "" {
		if err := writeHostTimeline(*profOut, sim.Profiler()); err != nil {
			fatalf("%v", err)
		}
	}

	if err := sim.CheckInvariants(); err != nil {
		fatalf("invariant violation: %v", err)
	}
}

// machineOpts is everything the flags contribute to one machine and run
// description. register binds it to a flag set, so -diverge parses its
// variant through the same flags the base configuration took.
type machineOpts struct {
	scheme, bench string
	seed          uint64
	config.Overrides
}

// register binds the ten machine flags to fs, with o's values as the
// defaults.
func (o *machineOpts) register(fs *flag.FlagSet) {
	fs.StringVar(&o.scheme, "scheme", o.scheme, "scheme: dnuca, dnuca2d, snuca3d, dnuca3d")
	fs.StringVar(&o.bench, "bench", o.bench, "SPEC OMP benchmark name")
	fs.Uint64Var(&o.seed, "seed", o.seed, "deterministic seed")
	fs.IntVar(&o.Layers, "layers", o.Layers, "override layer count (3D schemes)")
	fs.IntVar(&o.Pillars, "pillars", o.Pillars, "override pillar count")
	fs.IntVar(&o.L2MB, "l2", o.L2MB, "override L2 size in MB (16, 32, 64)")
	fs.BoolVar(&o.StackCPUs, "stack", o.StackCPUs, "force vertical CPU stacking")
	fs.StringVar(&o.DTMPolicy, "dtm", o.DTMPolicy, "dynamic thermal management policy: none (or off), all, or a comma list of veto, drowsy, duty, reroute (implies -thermal)")
	fs.Float64Var(&o.TripTempC, "trip", o.TripTempC, "DTM trip temperature in C (0 = the 85 C default)")
	fs.StringVar(&o.DutyCycle, "duty", o.DutyCycle, "DTM duty-cycle pattern N/M: a hot core issues on N of every M slots (default 1/4)")
}

// runDiverge is `nimsim -diverge`: the flag-described base run and a
// variant built from the override list run side by side, their digest
// streams bisected to the first divergent cycle and subsystem. Each
// k=v override is parsed as the machine flag -k=v.
func runDiverge(base machineOpts, spec string,
	warm, measure, tinter uint64, wantThermal bool, interval uint64, asJSON bool) {
	variant := base
	fs := flag.NewFlagSet("diverge", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	variant.register(fs)
	var args []string
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if !strings.Contains(kv, "=") {
			fatalf("-diverge: override %q is not key=value", kv)
		}
		args = append(args, "-"+kv)
	}
	if err := fs.Parse(args); err != nil {
		fatalf("-diverge: %v", err)
	}
	job := func(o machineOpts) nim.SweepJob {
		cfg, err := o.Build(o.scheme)
		if err != nil {
			fatalf("-diverge: %v", err)
		}
		j := nim.SweepJob{
			Config:        cfg,
			Benchmark:     o.bench,
			WarmCycles:    warm,
			MeasureCycles: measure,
			Seed:          o.seed,
		}
		if wantThermal || cfg.DTMActive() {
			j.ThermalInterval = tinter
		}
		return j
	}
	rep, err := nim.Diverge(job(base), job(variant), interval)
	if err != nil {
		fatalf("-diverge: %v", err)
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatalf("%v", err)
		}
		return
	}
	fmt.Printf("diverge     base vs %s\n", spec)
	fmt.Printf("  digest A       %s\n", rep.DigestA)
	fmt.Printf("  digest B       %s\n", rep.DigestB)
	fmt.Printf("  compared       %d snapshots every %d cycles\n", rep.Records, rep.Interval)
	if rep.Equal {
		fmt.Printf("  verdict        equal — every compared snapshot agrees\n")
		return
	}
	precision := "exact"
	if !rep.Refined {
		precision = fmt.Sprintf("within the %d cycles ending there", rep.Interval)
	}
	fmt.Printf("  verdict        DIVERGED\n")
	fmt.Printf("  first at       cycle %d (%s)\n", rep.Cycle, precision)
	fmt.Printf("  subsystem      %s\n", rep.Lane)
	if rep.Refined && rep.CoarseCycle != rep.Cycle {
		fmt.Printf("  coarse hit     cycle %d, refined by per-cycle rerun\n", rep.CoarseCycle)
	}
}

// writeHostTimeline dumps the profiler's rolling run-window series as a
// Perfetto host timeline (host microseconds on the x axis, unlike the
// -trace export's simulated cycles).
func writeHostTimeline(path string, rec *nim.ProfileRecorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteTimeline(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runDaemon runs the simulation-as-a-service mode (`nimsim -serve`).
// When -pprof names the same address as -serve, both share one listener
// deliberately: the profiler mounts on the daemon's own mux. A different
// -pprof address gets its own listener with a dedicated pprof-only mux.
func runDaemon(addr, pprofAddr string, sampleInterval uint64) {
	if pprofAddr != "" && pprofAddr != addr {
		go func() {
			if err := http.ListenAndServe(pprofAddr, serve.PprofMux()); err != nil {
				fmt.Fprintf(os.Stderr, "nimsim: pprof: %v\n", err)
			}
		}()
	}
	srv := serve.New(serve.Options{
		Addr:                  addr,
		DefaultSampleInterval: sampleInterval,
		EnablePprof:           pprofAddr == addr && pprofAddr != "",
	})
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "nimsim: serving on %s (POST /jobs, /metrics, /healthz)\n", addr)
	if err := srv.ListenAndServe(ctx); err != nil {
		fatalf("%v", err)
	}
}

// buildSimulation constructs (and warms) the requested machine: a single
// benchmark on every core, a multiprogrammed mix, or replayed trace files.
func buildSimulation(cfg nim.Config, bench, mix, traceIn string, seed uint64) (*nim.Simulation, error) {
	switch {
	case traceIn != "":
		files := strings.Split(traceIn, ",")
		streams := make([]nim.Stream, cfg.NumCPUs)
		var footprint []nim.LineAddr
		for i := range streams {
			f, err := os.Open(files[i%len(files)])
			if err != nil {
				return nil, err
			}
			fs, err := nim.ParseTrace(f)
			f.Close()
			if err != nil {
				return nil, err
			}
			streams[i] = fs
			footprint = append(footprint, fs.Footprint()...)
		}
		sim, err := nim.NewTraceSimulation(cfg, streams, "trace:"+traceIn, seed)
		if err != nil {
			return nil, err
		}
		sim.WarmAddresses(footprint)
		return sim, nil
	case mix != "":
		names := strings.Split(mix, ",")
		benches := make([]nim.Benchmark, cfg.NumCPUs)
		for i := range benches {
			p, ok := nim.BenchmarkByName(names[i%len(names)], cfg.NumCPUs)
			if !ok {
				return nil, fmt.Errorf("unknown benchmark %q", names[i%len(names)])
			}
			benches[i] = p
		}
		sim, err := nim.NewMixedSimulation(cfg, benches, seed)
		if err != nil {
			return nil, err
		}
		sim.Warm()
		return sim, nil
	default:
		prof, ok := nim.BenchmarkByName(bench, cfg.NumCPUs)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", bench)
		}
		sim, err := nim.NewSimulation(cfg, prof, seed)
		if err != nil {
			return nil, err
		}
		sim.Warm()
		return sim, nil
	}
}

// writeTrace dumps the ring's events as Chrome trace-event JSON. A
// non-zero drop count means the ring wrapped and the trace is partial: it
// is embedded in the trace's metadata for Perfetto and warned about on
// stderr.
func writeTrace(path string, ring *nim.TraceRing) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	meta := nim.TraceMeta{DroppedEvents: ring.Dropped()}
	if err := nim.WriteChromeTraceMeta(f, ring.Events(), meta); err != nil {
		f.Close()
		return err
	}
	if meta.DroppedEvents > 0 {
		fmt.Fprintf(os.Stderr, "nimsim: %s: ring dropped %d oldest events; the trace is partial (raise -tracebuf for full coverage)\n",
			path, meta.DroppedEvents)
	}
	return f.Close()
}

// writeMetrics dumps the sampled time series: Perfetto counter tracks when
// the filename ends in .trace.json, plain JSON when it ends in .json, CSV
// otherwise.
func writeMetrics(path string, ts *nim.MetricsSeries) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := ts.WriteCSV
	switch {
	case strings.HasSuffix(path, ".trace.json"):
		werr = func(w io.Writer) error { return nim.WriteCounterTrace(w, ts) }
	case strings.HasSuffix(path, ".json"):
		werr = ts.WriteJSON
	}
	if err := werr(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "nimsim: "+format+"\n", args...)
	os.Exit(1)
}
