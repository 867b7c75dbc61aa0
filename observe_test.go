// End-to-end tests of the observability surface: AttachTracer and
// Instrument on a real simulation, the observer non-perturbation
// contract, the Chrome trace export, and the WriteHeatmap / BusReport
// text reports.
package nim_test

import (
	"bytes"
	"cmp"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	nim "repro"
)

// newSim builds a simulation of cfg running the named benchmark on every
// core, requests in before Start, then warms and starts it.
func newSim(t testing.TB, cfg nim.Config, benchmark string, seed uint64, in nim.Instruments) *nim.Simulation {
	t.Helper()
	bench, _ := nim.BenchmarkByName(benchmark, cfg.NumCPUs)
	sim, err := nim.NewSimulation(cfg, bench, seed)
	if err == nil {
		err = sim.Instrument(in)
	}
	if err != nil {
		t.Fatal(err)
	}
	sim.Warm(seed)
	sim.Start()
	return sim
}

// observedSim builds, warms, and settles the default 3D machine so the
// observability tests all measure the same steady state.
func observedSim(t testing.TB) *nim.Simulation {
	t.Helper()
	sim := newSim(t, nim.DefaultConfig(nim.CMPDNUCA3D), "mgrid", 7, nim.Instruments{})
	sim.Run(10_000)
	sim.ResetStats()
	return sim
}

func TestAttachTracerEndToEnd(t *testing.T) {
	sim := observedSim(t)
	ring := nim.NewTraceRing(500_000)
	sim.AttachTracer(ring)
	sim.Run(30_000)

	events := ring.Events()
	if len(events) == 0 {
		t.Fatal("no events traced from a live simulation")
	}
	if ring.Dropped() != 0 {
		t.Fatalf("ring dropped %d events; raise the test capacity", ring.Dropped())
	}
	cats := map[string]bool{}
	for _, e := range events {
		cats[e.Kind.Category().String()] = true
	}
	for _, want := range []string{"packet", "dtdma", "migration", "coherence"} {
		if !cats[want] {
			t.Errorf("category %q absent from a 30k-cycle mgrid window", want)
		}
	}

	// The export must round-trip through encoding/json and keep every event.
	var buf bytes.Buffer
	if err := nim.WriteChromeTraceMeta(&buf, events, nim.TraceMeta{}); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Phase string `json:"ph"`
			Cat   string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	instants := 0
	for _, te := range parsed.TraceEvents {
		if te.Phase == "i" {
			instants++
		}
	}
	if instants != len(events) {
		t.Fatalf("export has %d instant events, ring had %d", instants, len(events))
	}
}

func TestAttachTracerDetach(t *testing.T) {
	sim := observedSim(t)
	ring := nim.NewTraceRing(100_000)
	sim.AttachTracer(ring)
	sim.Run(2_000)
	n := ring.Len()
	if n == 0 {
		t.Fatal("no events before detach")
	}
	sim.AttachTracer(nil)
	sim.Run(2_000)
	if ring.Len() != n {
		t.Fatalf("ring grew from %d to %d events after detach", n, ring.Len())
	}
}

func TestAttachSamplerEndToEnd(t *testing.T) {
	sim := observedSim(t)
	if err := sim.Instrument(nim.Instruments{SampleInterval: 1_000}); err != nil {
		t.Fatal(err)
	}
	sampler := sim.Sampler()
	sim.Run(30_000)
	r := sim.Results()

	ts := sampler.Series()
	if len(ts.Header) == 0 || ts.Header[0] != "cycle" {
		t.Fatalf("header = %v, want cycle first", ts.Header)
	}
	for _, want := range []string{"l2_accesses", "migrations", "hit_lat_mean", "hit_lat_p95", "router_util", "bus0_occ"} {
		if !slicesContains(ts.Header, want) {
			t.Errorf("header %v missing column %q", ts.Header, want)
		}
	}
	// 30k measured cycles at a 1k interval: ~29 rows (the first tick primes).
	if len(ts.Rows) < 25 {
		t.Fatalf("%d rows sampled, want ~29", len(ts.Rows))
	}
	var prev float64 = -1
	for i, row := range ts.Rows {
		if len(row) != len(ts.Header) {
			t.Fatalf("row %d has %d fields, header %d", i, len(row), len(ts.Header))
		}
		if row[0] <= prev {
			t.Fatalf("cycles not strictly increasing at row %d: %v after %v", i, row[0], prev)
		}
		prev = row[0]
	}

	// Fractions must be fractions, and the counter deltas must add back up
	// to (at most) the cumulative counters the window reported.
	util := columnIndex(ts.Header, "router_util")
	occ := columnIndex(ts.Header, "bus0_occ")
	acc := columnIndex(ts.Header, "l2_accesses")
	var accSum float64
	for _, row := range ts.Rows {
		if row[util] < 0 || row[util] > 1 {
			t.Fatalf("router_util = %v outside [0,1]", row[util])
		}
		if row[occ] < 0 || row[occ] > 1 {
			t.Fatalf("bus0_occ = %v outside [0,1]", row[occ])
		}
		accSum += row[acc]
	}
	if accSum == 0 {
		t.Fatal("sampled l2_accesses deltas are all zero over a live window")
	}
	if accSum > float64(r.L2Accesses) {
		t.Fatalf("sampled deltas sum to %v, more than the window's %d accesses", accSum, r.L2Accesses)
	}

	// CSV export of the live series must be loadable and cycle-ordered.
	var buf bytes.Buffer
	if err := ts.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != len(ts.Rows)+1 {
		t.Fatalf("CSV has %d lines, want header + %d rows", len(lines), len(ts.Rows))
	}
	last := -1.0
	for _, line := range lines[1:] {
		cyc, err := strconv.ParseFloat(line[:strings.Index(line, ",")], 64)
		if err != nil {
			t.Fatalf("bad CSV cycle field in %q: %v", line, err)
		}
		if cyc <= last {
			t.Fatalf("CSV cycles not increasing: %v after %v", cyc, last)
		}
		last = cyc
	}
}

func TestWriteHeatmapContent(t *testing.T) {
	sim := observedSim(t)
	sim.Run(20_000)
	var buf bytes.Buffer
	sim.WriteHeatmap(&buf)
	out := buf.String()

	if !strings.Contains(out, "router utilization (max ") {
		t.Fatalf("heatmap missing title:\n%s", out)
	}
	cfg := nim.DefaultConfig(nim.CMPDNUCA3D)
	for l := 0; l < cfg.Layers; l++ {
		if !strings.Contains(out, "layer "+strconv.Itoa(l)+":") {
			t.Errorf("heatmap missing layer %d header", l)
		}
	}
	// Every grid row must have the same width, and the maps must mark the
	// CPUs (C) and pillar columns (P).
	var gridWidth, cpus, pillars int
	for _, line := range strings.Split(out, "\n") {
		if line == "" || strings.HasPrefix(line, "layer ") || strings.HasPrefix(line, "router ") {
			continue
		}
		if gridWidth == 0 {
			gridWidth = len(line)
		} else if len(line) != gridWidth {
			t.Fatalf("ragged heatmap row %q (want width %d)", line, gridWidth)
		}
		cpus += strings.Count(line, "C")
		pillars += strings.Count(line, "P")
	}
	if cpus != cfg.NumCPUs {
		t.Errorf("heatmap marks %d CPUs, config has %d", cpus, cfg.NumCPUs)
	}
	if pillars == 0 {
		t.Error("heatmap marks no pillar-only nodes")
	}
}

func TestWriteBusReportContent(t *testing.T) {
	sim := observedSim(t)
	sim.Run(20_000)
	var buf bytes.Buffer
	sim.BusReport(&buf)
	out := buf.String()

	if !strings.Contains(out, "pillar") || !strings.Contains(out, "utilization") {
		t.Fatalf("bus report missing header:\n%s", out)
	}
	cfg := nim.DefaultConfig(nim.CMPDNUCA3D)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	busLines := 0
	for _, line := range lines {
		if !strings.HasPrefix(line, "bus ") {
			continue
		}
		busLines++
		// The line ends in the utilization percentage; it must parse and be
		// a sane fraction of the run.
		fields := strings.Fields(line)
		pct, err := strconv.ParseFloat(strings.TrimSuffix(fields[len(fields)-1], "%"), 64)
		if err != nil {
			t.Fatalf("bad utilization field in %q: %v", line, err)
		}
		if pct < 0 || pct > 100 {
			t.Fatalf("utilization %v%% outside [0,100] in %q", pct, line)
		}
	}
	if busLines != cfg.NumPillars {
		t.Errorf("bus report has %d bus rows, config has %d pillars", busLines, cfg.NumPillars)
	}
}

func TestAttachThermalEndToEnd(t *testing.T) {
	sim := observedSim(t)
	if err := sim.Instrument(nim.Instruments{ThermalInterval: 1_000, SampleInterval: 1_000}); err != nil {
		t.Fatal(err)
	}
	sim.Run(30_000)
	r := sim.Results()

	if r.Thermal == nil {
		t.Fatal("Results.Thermal nil with a tracker attached")
	}
	th := r.Thermal
	if th.Steps < 25 {
		t.Fatalf("tracker integrated %d windows over 30k cycles at interval 1k, want ~29", th.Steps)
	}
	// The grid warm-starts at the static steady state (~47 C peak with
	// background power only); activity can only heat it from there, and no
	// plausible window melts the chip.
	if th.PeakC < 45 || th.PeakC > 250 {
		t.Fatalf("peak %v C implausible", th.PeakC)
	}
	if th.FinalPeakC > th.PeakC {
		t.Fatalf("final peak %v exceeds running peak %v", th.FinalPeakC, th.PeakC)
	}
	if th.Energy.TotalPJ <= 0 || th.AvgPowerW <= 0 {
		t.Fatal("no energy charged over a live mgrid window")
	}
	if th.Energy.NetworkPJ <= 0 || th.Energy.BanksPJ <= 0 || th.Energy.TagsPJ <= 0 || th.Energy.CPUPJ <= 0 {
		t.Fatalf("energy breakdown has empty components: %+v", th.Energy)
	}
	cfg := nim.DefaultConfig(nim.CMPDNUCA3D)
	if len(th.Layers) != cfg.Layers {
		t.Fatalf("report covers %d layers, chip has %d", len(th.Layers), cfg.Layers)
	}
	if th.PeakLayer < 0 || th.PeakLayer >= cfg.Layers {
		t.Fatalf("peak layer %d out of range", th.PeakLayer)
	}

	// The sampler, attached after the tracker, must carry the thermal
	// columns with live values.
	ts := sim.Sampler().Series()
	for _, want := range []string{"power_w", "p_cpu_w", "p_net_w", "t_peak_l0", "t_mean_l1", "t_hot_c", "flit_hops", "bus_flits"} {
		if !slicesContains(ts.Header, want) {
			t.Errorf("sampler header %v missing thermal column %q", ts.Header, want)
		}
	}
	pw := columnIndex(ts.Header, "power_w")
	tp := columnIndex(ts.Header, "t_peak_l0")
	var anyPower bool
	for _, row := range ts.Rows {
		if row[pw] > 0 {
			anyPower = true
		}
		if row[tp] < 40 || row[tp] > 250 {
			t.Fatalf("sampled t_peak_l0 = %v C implausible", row[tp])
		}
	}
	if !anyPower {
		t.Fatal("sampled power_w never positive over a live window")
	}

	// The temperature map renders every layer and marks the CPUs.
	var buf bytes.Buffer
	if err := sim.WriteThermalMap(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for l := 0; l < cfg.Layers; l++ {
		if !strings.Contains(out, "layer "+strconv.Itoa(l)) {
			t.Errorf("thermal map missing layer %d", l)
		}
	}
	if strings.Count(out, "C") < cfg.NumCPUs {
		t.Errorf("thermal map marks %d CPU cells, want >= %d", strings.Count(out, "C"), cfg.NumCPUs)
	}
}

// TestThermalMapRequiresTracker pins the error path: rendering without an
// attached pipeline must fail rather than print an empty map.
func TestThermalMapRequiresTracker(t *testing.T) {
	sim := observedSim(t)
	if err := sim.WriteThermalMap(&bytes.Buffer{}); err == nil {
		t.Fatal("WriteThermalMap succeeded with no thermal pipeline attached")
	}
}

// instrumentedRun is one short measured run of the kind every observer
// contract is checked on: seed 3, 5k settle cycles, then 20k measured
// cycles, with in requested before Start so the window instruments attach
// at the stats reset. A non-zero chunk cuts the measured window into Run
// calls of that many cycles, the way the runner executes every job;
// tracer attaches a trace ring for the measured window.
type instrumentedRun struct {
	cfg    nim.Config
	in     nim.Instruments
	chunk  uint64
	tracer bool
}

func (ir instrumentedRun) results(t testing.TB) nim.Results {
	t.Helper()
	sim := newSim(t, ir.cfg, "mgrid", 3, ir.in)
	sim.Run(5_000)
	sim.ResetStats()
	if ir.tracer {
		sim.AttachTracer(nim.NewTraceRing(1 << 16))
	}
	const window = 20_000
	for done, chunk := uint64(0), cmp.Or(ir.chunk, window); done < window; done += chunk {
		sim.Run(min(chunk, window-done))
	}
	return sim.Results()
}

// checkNoPerturb is the contract every observer meets: it observes the
// machine without changing it, so the observed run's Results equal the
// plain run's byte for byte once every instrument report (Breakdown,
// Thermal, DTM, Profile, Digests) is stripped from both. It returns the
// observed run's Results, reports intact.
func checkNoPerturb(t *testing.T, plain, observed instrumentedRun) nim.Results {
	t.Helper()
	strip := func(r nim.Results) []byte {
		r.Breakdown, r.Thermal, r.DTM, r.Profile, r.Digests = nil, nil, nil, nil, nil
		b, _ := json.Marshal(r)
		return b
	}
	got := observed.results(t)
	if pj, oj := strip(plain.results(t)), strip(got); !bytes.Equal(pj, oj) {
		t.Fatalf("observers changed results:\nplain    %s\nobserved %s", pj, oj)
	}
	return got
}

// TestThermalDoesNotPerturb is the telemetry contract for the
// power/thermal pipeline.
func TestThermalDoesNotPerturb(t *testing.T) {
	cfg := nim.DefaultConfig(nim.CMPDNUCA3D)
	observed := instrumentedRun{cfg: cfg, in: nim.Instruments{ThermalInterval: 1_000}}
	if checkNoPerturb(t, instrumentedRun{cfg: cfg}, observed).Thermal == nil {
		t.Fatal("thermal run returned no Thermal report")
	}
}

// TestInstrumentsDoNotPerturb holds the combinations the per-observer
// tests leave out to the same contract, on every scheme: the sampler
// alone, spans alone, and every instrument at once with the tracer.
func TestInstrumentsDoNotPerturb(t *testing.T) {
	all := nim.Instruments{SampleInterval: 1_000, ThermalInterval: 1_000, DigestInterval: 1_000, RecordSpans: true, Profile: true}
	for _, scheme := range nim.Schemes() {
		cfg := nim.DefaultConfig(scheme)
		for name, observed := range map[string]instrumentedRun{
			"sampler":    {cfg: cfg, in: nim.Instruments{SampleInterval: 1_000}},
			"spans":      {cfg: cfg, in: nim.Instruments{RecordSpans: true}},
			"all+tracer": {cfg: cfg, in: all, tracer: true},
		} {
			t.Run(scheme.String()+"/"+name, func(t *testing.T) { checkNoPerturb(t, instrumentedRun{cfg: cfg}, observed) })
		}
	}
}

func slicesContains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}

func columnIndex(header []string, name string) int {
	for i, h := range header {
		if h == name {
			return i
		}
	}
	return -1
}
