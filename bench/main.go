// Command nimbench is the repository's benchmark. It runs one workload
// against the simulator, the serving daemon or the cmd/experiments binary
// for a fixed time, checks every output it gets back, and prints what it
// measured as one JSON object on the last line of standard output:
//
//	{"correct": true, "attempted": 240, "failed": 0, "metrics": {"setup_s": {"value": 0.061, "unit": "s"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run is split into an untraced and a traced half and the metrics are the
// per-layer ones, and the benchmark's own spans are written to --spans.
// Build and run it from the repository root through bench/run.sh:
//
//	bash bench/run.sh --workload stacked-mgrid --seed 1 --seconds 15 --trace 0
//
// Without --workload every workload runs in turn, each in a fresh process.
// bench/README.md describes the workloads and the metrics.
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/prof"
)

// workload is one set of inputs the benchmark runs. BENCHMARK.json lists
// the same names with the reason each was chosen.
type workload struct {
	name string
	run  func(o opts) (*measurement, error)
}

var workloads = []workload{
	{"stacked-mgrid", func(o opts) (*measurement, error) { return runSim(stackedMgrid, o) }},
	{"snuca-equake", func(o opts) (*measurement, error) { return runSim(snucaEquake, o) }},
	{"daemon-miss", runMiss},
	{"daemon-hit", runHit},
	{"experiments", runExperiments},
}

// opts are the settings of one measured run.
type opts struct {
	seed    uint64
	seconds time.Duration
	// spans, when non-nil, makes the run a traced one: the program's own
	// instruments are attached and the benchmark records its spans here.
	spans *spanLog
	// quick shrinks every count to a thousandth and the experiments sweep
	// to one table, for the rot test.
	quick  bool
	expBin string // the cmd/experiments binary
}

// measurement is what one workload run observed.
type measurement struct {
	setup     []time.Duration // one per set-up of the program under test
	ops       []time.Duration // one per successful operation
	work      float64         // units of work completed in the measured time
	busy      time.Duration   // the measured time that work took
	attempted int
	failed    int
	problems  []string // the first failed checks, for the detail line
	// digest is the SHA-256 of the output bench/golden pins for this
	// workload and seed; every repetition in a run must produce it.
	digest    string
	peakRSSKB int64 // peak RSS of the child program; 0 reads this process's
	// layers holds per-layer metrics the workload measured itself (traced
	// simulation runs); nil makes the traced run probe the headline machine.
	layers map[string]float64
}

// fail counts ops failed operations and keeps the reason.
func (m *measurement) fail(ops int, format string, a ...any) {
	m.failed += ops
	if len(m.problems) < 5 {
		m.problems = append(m.problems, fmt.Sprintf(format, a...))
	}
}

// metric is one metric BENCHMARK.json declares, with its unit.
type metric struct{ name, unit string }

// endToEnd and perLayer are the metrics BENCHMARK.json declares, in its
// order.
var (
	endToEnd = []metric{{"setup_s", "s"}, {"op_p50_ms", "ms"}, {"work_per_s", "1/s"}, {"peak_rss_mb", "MB"}}
	perLayer = []metric{
		{"core.new_system_ms", "ms"}, {"core.warm_ms", "ms"},
		{"core.cpu_ns_per_cycle", "ns"}, {"core.cpu_events_per_cycle", "count"},
		{"core.protocol_ns_per_cycle", "ns"}, {"core.protocol_events_per_cycle", "count"},
		{"fabric.net_ns_per_cycle", "ns"}, {"fabric.flit_hops_per_cycle", "count"},
		{"fabric.ns_per_flit_hop", "ns"}, {"dtdma.bus_flits_per_cycle", "count"},
		{"sim.engine_ns_per_cycle", "ns"},
		{"core.l2_accesses", "count"}, {"core.hits_per_probe", "ratio"},
		{"go.alloc_bytes_per_cycle", "bytes"}, {"go.gc_per_mcycle", "count"},
		{"fabric.loaded_tick_ns", "ns"}, {"fabric.idle_tick_ns", "ns"},
		{"dtdma.tick_ns_1client", "ns"}, {"dtdma.tick_ns_4client", "ns"},
		{"sim.event_ns", "ns"}, {"trace.next_ns", "ns"},
		{"serve.handler_us", "us"}, {"serve.http_us", "us"}, {"serve.hit_body_bytes", "bytes"},
		{"runner.loop_ms", "ms"}, {"serve.miss_overhead_ms", "ms"}, {"obs.sampler_ns_per_cycle", "ns"},
		{"trace_overhead_frac", "ratio"},
	}
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// detail is the line printed before the report: provenance and what the
// report leaves out.
type detail struct {
	Workload string        `json:"workload"`
	Seed     uint64        `json:"seed"`
	Seconds  float64       `json:"seconds"`
	Trace    int           `json:"trace"`
	Host     prof.HostInfo `json:"host"`
	Ops      int           `json:"ops"`
	// Tail is the highest of p90 and p99 with at least ten operations
	// beyond it, absent when there are too few operations.
	Tail     map[string]float64 `json:"op_tail_ms,omitempty"`
	Digest   string             `json:"digest,omitempty"`
	Golden   string             `json:"golden"`
	Problems []string           `json:"problems,omitempty"`
}

//go:embed golden/sha256.json
var goldenJSON []byte

// goldenFile is where -write-golden records digests, relative to the
// repository root.
const goldenFile = "bench/golden/sha256.json"

// golden maps workload → seed → the SHA-256 its output must have.
type golden map[string]map[string]string

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (default: every workload, each in its own process)")
		seed      = flag.Uint64("seed", 1, "seed the workload's inputs are made from")
		seconds   = flag.Int("seconds", 15, "how long one run measures")
		traceFlag = flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end ones")
		spansPath = flag.String("spans", "bench/out/spans.json", "where a traced run writes its spans")
		write     = flag.Bool("write-golden", false, "record this run's output digest in "+goldenFile)
	)
	flag.Parse()
	if *traceFlag != 0 && *traceFlag != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("--seconds must be at least 1"))
	}
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	if *name == "" {
		if err := runAll(self, *seed, *seconds, *traceFlag, *spansPath); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := lookup(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	// bench/run.sh builds cmd/experiments next to this binary.
	o := opts{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		expBin: filepath.Join(filepath.Dir(self), "experiments"),
	}
	rep, det, err := measure(w, o, *traceFlag == 1, *spansPath)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", w.name, err))
	}
	if *write {
		if !rep.Correct {
			fatal(fmt.Errorf("%s failed its checks, not recording its digest: %v", w.name, det.Problems))
		}
		if err := writeGolden(w.name, *seed, det.Digest); err != nil {
			fatal(err)
		}
	} else {
		rep = checkGolden(rep, &det)
	}
	printJSON(det)
	printJSON(rep)
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runAll runs every workload in a fresh process of this binary, so one
// workload's heap cannot slow the next or inflate its peak RSS.
func runAll(self string, seed uint64, seconds, trace int, spansPath string) error {
	var failed []string
	for _, w := range workloads {
		cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-spans", spansPath)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, w.name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %v", failed)
	}
	return nil
}

// measure runs one workload and turns what it observed into the report.
// A traced run splits the time between an untraced and a traced half.
func measure(w workload, o opts, trace bool, spansPath string) (report, detail, error) {
	det := detail{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds.Seconds(), Host: host(),
		Golden: "none",
	}
	if !trace {
		m, err := w.run(o)
		if err != nil {
			return report{}, det, err
		}
		det.fill(m)
		rep := newReport(m)
		rep.Metrics = named(endToEnd, map[string]float64{
			"setup_s":     median(inSeconds(m.setup)),
			"op_p50_ms":   median(inSeconds(m.ops)) * 1e3,
			"work_per_s":  m.work / m.busy.Seconds(),
			"peak_rss_mb": float64(peakRSSKB(m)) / 1024,
		})
		return rep, det, nil
	}

	det.Trace = 1
	half := o
	half.seconds = o.seconds / 2
	plain, err := w.run(half)
	if err != nil {
		return report{}, det, err
	}
	spans := newSpanLog()
	half.spans = spans
	traced, err := w.run(half)
	if err != nil {
		return report{}, det, err
	}
	if plain.digest != traced.digest {
		traced.fail(traced.attempted, "traced output digest %s differs from untraced %s", traced.digest, plain.digest)
	}
	layers := traced.layers
	if layers == nil {
		if layers, err = probeMachine(half); err != nil {
			return report{}, det, err
		}
	}
	benches, err := layerBenches(o)
	if err != nil {
		return report{}, det, err
	}
	for k, v := range benches {
		layers[k] = v
	}
	layers["trace_overhead_frac"] = median(inSeconds(traced.ops))/median(inSeconds(plain.ops)) - 1
	if err := spans.write(spansPath, w.name); err != nil {
		return report{}, det, err
	}

	both := *plain
	both.attempted += traced.attempted
	both.failed += traced.failed
	both.problems = append(both.problems, traced.problems...)
	both.ops = append(both.ops, traced.ops...)
	det.fill(&both)
	rep := newReport(&both)
	rep.Metrics = named(perLayer, layers)
	return rep, det, nil
}

// fill copies a measurement's provenance into the detail line.
func (d *detail) fill(m *measurement) {
	d.Ops = len(m.ops)
	d.Digest = m.digest
	d.Problems = m.problems
	ms := inSeconds(m.ops)
	for _, q := range []float64{0.99, 0.90} {
		if float64(len(ms))*(1-q) >= 10 {
			d.Tail = map[string]float64{fmt.Sprintf("p%.0f", q*100): quantile(ms, q) * 1e3}
			break
		}
	}
}

func newReport(m *measurement) report {
	return report{Correct: m.failed == 0 && m.attempted > 0, Attempted: m.attempted, Failed: m.failed}
}

// checkGolden compares the run's output digest with the committed one for
// its workload and seed. A mismatch means every operation returned wrong
// output, so all of them count as failed.
func checkGolden(rep report, det *detail) report {
	if det.Digest == "" {
		return rep
	}
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		fatal(fmt.Errorf("parsing embedded %s: %w", goldenFile, err))
	}
	want, ok := g[det.Workload][strconv.FormatUint(det.Seed, 10)]
	switch {
	case !ok:
		return rep
	case want == det.Digest:
		det.Golden = "match"
	default:
		det.Golden = "mismatch"
		det.Problems = append(det.Problems, fmt.Sprintf("output digest %s, golden %s", det.Digest, want))
		rep.Correct = false
		rep.Failed = rep.Attempted
	}
	return rep
}

func writeGolden(name string, seed uint64, digest string) error {
	if digest == "" {
		return fmt.Errorf("%s produced no output digest", name)
	}
	g := golden{}
	if b, err := os.ReadFile(goldenFile); err == nil {
		if err := json.Unmarshal(b, &g); err != nil {
			return fmt.Errorf("parsing %s: %w", goldenFile, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if g[name] == nil {
		g[name] = map[string]string{}
	}
	g[name][strconv.FormatUint(seed, 10)] = digest
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenFile, append(b, '\n'), 0o644)
}

// resultsDigest hashes a Results value without its host-dependent
// Profile and its optional Digests, the two fields that may differ
// between runs that simulated exactly the same thing.
func resultsDigest(r core.Results) string {
	r.Profile, r.Digests = nil, nil
	b, err := json.Marshal(r)
	if err != nil {
		panic(fmt.Sprintf("marshaling Results: %v", err))
	}
	return sha256Hex(b)
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func named(metrics []metric, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(metrics))
	for _, m := range metrics {
		out[m.name] = metricValue{Value: values[m.name], Unit: m.unit}
	}
	return out
}

func peakRSSKB(m *measurement) int64 {
	if m.peakRSSKB > 0 {
		return m.peakRSSKB
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fatal(fmt.Errorf("getrusage: %w", err))
	}
	return ru.Maxrss // kilobytes on Linux
}

func host() prof.HostInfo {
	return prof.HostInfo{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

func inSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the two nearest ranks, so the
// median of an even count is the mean of the middle two.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nimbench:", err)
	os.Exit(1)
}
