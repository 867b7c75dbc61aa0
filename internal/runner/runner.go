package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

// DefaultWarmCycles and DefaultMeasureCycles are the standard windows:
// nim.DefaultOptions, the CLIs' flags and the daemon's omitted windows.
const (
	DefaultWarmCycles    = 50_000
	DefaultMeasureCycles = 250_000
)

// Job describes one warmed, settled, measured simulation. The zero values
// of WarmCycles and MeasureCycles are honored literally (a zero-cycle
// window), so callers should populate both.
type Job struct {
	// Config is the complete machine description, including the scheme
	// and any per-job overrides (L2 size, layer count, pillar count, ...).
	Config config.Config
	// Benchmark names a SPEC OMP profile (trace.ProfileByName) to run on
	// every core.
	Benchmark string
	// WarmCycles settles the warmed caches before measurement begins.
	WarmCycles uint64
	// MeasureCycles is the statistics window.
	MeasureCycles uint64
	// Seed makes the run deterministic.
	Seed uint64
	// Instruments selects the observers (core.System.Instrument). The span
	// recorder and the profiler attach before warm-up, so the breakdown
	// covers exactly the transactions the measured latency means do and
	// the profile covers the whole run; the window instruments attach at
	// the stats reset and cover the measurement window. Samples land in
	// Result.Samples and the reports in Results. A managed machine
	// (Config.DTMActive) needs a ThermalInterval.
	core.Instruments

	// digestStart delays the digest attach that many cycles into the
	// measurement window; only Diverge's refinement pass sets it.
	digestStart uint64

	// OnChunk, when non-nil, is called on the worker goroutine after every
	// chunk of both windows, and once at completion when the measurement
	// window is empty and so ran no chunk. fraction is the job's
	// completion, warm+measure cycles executed over the total: it is
	// non-decreasing, stays in [0, 1] and ends at exactly 1.0, zero-cycle
	// windows included. measuring reports the measurement window, where
	// counters and the profile mean something; the final call, and only
	// it, is measuring at fraction 1.0.
	// The hook may read sys (counter snapshots, the sampler's rows, the
	// profiler) but must not advance or change it.
	OnChunk func(sys *core.System, fraction float64, measuring bool)
}

// Identity returns the job's id, 16 hex characters of the SHA-256 of the
// JSON encoding of every field that can change a deterministic run's
// Results, together with the config.CanonicalHash inside it. Every
// instrument with a wire name adds a report or a sample stream, so the
// Instruments are all part of it; the host-side Profile has no wire name
// and is not, and neither is OnChunk. Jobs with equal ids produce
// equal Results: the daemon's result cache and cmd/experiments' sweep
// plan both key on it.
func (j Job) Identity() (id, configHash string) {
	configHash = config.CanonicalHash(j.Config)
	b, err := json.Marshal(struct {
		ConfigHash    string `json:"config_hash"`
		Benchmark     string `json:"benchmark"`
		WarmCycles    uint64 `json:"warm_cycles"`
		MeasureCycles uint64 `json:"measure_cycles"`
		Seed          uint64 `json:"seed"`
		core.Instruments
	}{configHash, j.Benchmark, j.WarmCycles, j.MeasureCycles, j.Seed, j.Instruments})
	if err != nil {
		panic(fmt.Sprintf("runner: job identity encoding failed: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), configHash
}

// Validate reports, before anything runs, why the job could not run: a
// machine that cannot be built (config.NewTopology validates the config
// and places every CPU), an unknown benchmark, or DTM that cannot run
// (core.CheckDTM: no thermal interval, or strings that do not parse).
func (j Job) Validate() error {
	if _, err := config.NewTopology(j.Config); err != nil {
		return err
	}
	if _, ok := trace.ProfileByName(j.Benchmark, j.Config.NumCPUs); !ok {
		return fmt.Errorf("unknown benchmark %q", j.Benchmark)
	}
	return core.CheckDTM(j.Config, j.ThermalInterval > 0)
}

// Result pairs a Job with its outcome. Exactly one of Results/Err is
// meaningful: Err != nil means the job failed and Results is zero.
type Result struct {
	// Index is the job's position in the input slice.
	Index int
	// Job echoes the job that produced this result.
	Job Job
	// Results is the measurement summary for a successful run.
	Results core.Results
	// Err captures a per-job failure (unknown benchmark, invalid config,
	// or a recovered simulation panic). A failed job never aborts the
	// surrounding sweep.
	Err error
	// Samples is the per-job interval metrics time series, present only
	// when Job.SampleInterval was non-zero and the job succeeded.
	Samples *obs.TimeSeries
}

// Pool is a bounded worker pool for simulation sweeps. The zero value is
// ready to use and runs on runtime.GOMAXPROCS(0) workers.
type Pool struct {
	// Workers bounds the number of concurrently running simulations.
	// Values <= 0 select runtime.GOMAXPROCS(0); one worker runs the jobs
	// one at a time, in input order.
	Workers int
	// Progress, when non-nil, is invoked once per finished job with the
	// number of jobs done so far, the total, and the finished job's
	// result. Calls are serialized and arrive in completion order (which
	// under parallelism is not input order — use Result.Index).
	Progress func(done, total int, r Result)
}

// Run executes every job and returns one Result per job, in input order
// regardless of the completion order. It never returns an error itself:
// per-job failures land in the corresponding Result.Err, so one bad job
// cannot take down a long sweep.
func (p *Pool) Run(jobs []Job) []Result {
	results := make([]Result, len(jobs))
	if len(jobs) == 0 {
		return results
	}
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	var (
		wg   sync.WaitGroup
		mu   sync.Mutex // guards done and serializes Progress
		done int
		next = make(chan int)
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				r := runOne(i, jobs[i])
				results[i] = r
				if p.Progress != nil {
					mu.Lock()
					done++
					p.Progress(done, len(jobs), r)
					mu.Unlock()
				}
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	return results
}

// Run executes jobs on a default pool with the given worker bound; see
// Pool.Run for the ordering and error-capture contract.
func Run(jobs []Job, workers int) []Result {
	p := Pool{Workers: workers}
	return p.Run(jobs)
}

// runOne builds, warms, settles, and measures one simulation, converting
// any failure — including a panic inside the simulator — into Result.Err.
func runOne(i int, j Job) (res Result) {
	res = Result{Index: i, Job: j}
	defer func() {
		if v := recover(); v != nil {
			res.Err = fmt.Errorf("runner: job %d (%s on %s) panicked: %v",
				i, j.Config.Scheme, j.Benchmark, v)
			res.Results = core.Results{}
		}
	}()
	bench, ok := trace.ProfileByName(j.Benchmark, j.Config.NumCPUs)
	if !ok {
		res.Err = fmt.Errorf("runner: unknown benchmark %q", j.Benchmark)
		return res
	}
	sys, err := core.NewSystem(j.Config, bench, j.Seed)
	if err != nil {
		res.Err = err
		return res
	}
	in, digestAt := j.Instruments, min(j.digestStart, j.MeasureCycles)
	if digestAt > 0 {
		in.DigestInterval = 0 // attached digestAt cycles into the window
	}
	if err := sys.Instrument(in); err != nil {
		res.Err = fmt.Errorf("runner: job %d: %w", i, err)
		return res
	}
	sys.Warm(j.Seed)
	sys.Start()
	done := runChunked(sys, j, j.WarmCycles, 0, false)
	sys.ResetStats()
	if digestAt > 0 {
		// Split the window at the deferred attach point; both segments
		// are ordinary chunked runs, so OnChunk sees one window.
		done = runChunked(sys, j, digestAt, done, true)
		if err := sys.Instrument(core.Instruments{DigestInterval: j.DigestInterval}); err != nil {
			res.Err = fmt.Errorf("runner: job %d: %w", i, err)
			return res
		}
	}
	runChunked(sys, j, j.MeasureCycles-digestAt, done, true)
	if j.OnChunk != nil && j.MeasureCycles == 0 {
		// The measurement window ran no chunk to make the final call.
		j.OnChunk(sys, 1, true)
	}
	res.Results = sys.Results()
	if sm := sys.Sampler(); sm != nil {
		res.Samples = sm.Series()
	}
	return res
}

// progressChunks bounds how many Run calls one window (or segment of a
// window) splits into; 64 keeps the per-call overhead invisible (each
// chunk is thousands of cycles for realistic windows) while giving ~1.5%
// progress granularity.
const progressChunks = 64

// runChunked advances the machine by cycles in at most progressChunks Run
// calls, calling j.OnChunk after each with the job's fraction done, and
// returns the job's cycles done so far, starting from done. Chunked
// execution is cycle-for-cycle identical to a single Run: Run steps every
// cycle, so Run(a) then Run(b) steps exactly the cycles of Run(a+b), and
// only the observation points differ.
func runChunked(sys *core.System, j Job, cycles, done uint64, measuring bool) uint64 {
	total := j.WarmCycles + j.MeasureCycles
	chunk := cycles/progressChunks + min(cycles%progressChunks, 1) // rounded up
	for end := done + cycles; done < end; {
		n := min(chunk, end-done)
		sys.Run(n)
		done += n
		if j.OnChunk != nil {
			j.OnChunk(sys, float64(done)/float64(total), measuring)
		}
	}
	return done
}

// FirstError returns the first failed job's error in input order, or nil
// when every job succeeded (nim.SweepError).
func FirstError(results []Result) error {
	for _, r := range results {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}
