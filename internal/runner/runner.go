package runner

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Job describes one warmed, settled, measured simulation. The zero values
// of WarmCycles and MeasureCycles are honored literally (a zero-cycle
// window), so callers should populate both.
type Job struct {
	// Label is an optional caller-chosen tag carried through to the
	// Result; the runner never interprets it.
	Label string
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

	// Progress, when non-nil, receives the job's completion fraction —
	// warm+measure cycles executed over the total — as the simulation
	// advances. The sequence is monotonically non-decreasing, stays in
	// [0, 1], and always ends with exactly 1.0 (including for zero-cycle
	// windows). Setting it makes the runner advance the machine in
	// bounded chunks instead of two long Run calls; chunked execution is
	// cycle-for-cycle identical to unchunked (Run steps every cycle, so
	// Run(a) then Run(b) steps exactly the cycles of Run(a+b)), so Results
	// are unchanged. Calls arrive on the worker goroutine executing this
	// job.
	Progress func(fraction float64)

	// OnSample, when non-nil (and SampleInterval non-zero), streams each
	// sampled interval-metrics row the moment it is taken, via the
	// sampler's row sink (obs.Sampler.SetRowSink): header is the column
	// list (first entry "cycle"), row the freshly appended values. The
	// slices are owned by the sampler — copy to retain. Calls arrive on
	// the worker goroutine; hand the data off quickly (the simulated
	// clock is stopped while the sink runs). Result.Samples still carries
	// the complete series at the end.
	OnSample func(header []string, row []float64)

	// OnStats, when non-nil, receives a race-safe snapshot of the
	// machine's counter registry (core.System.StatsRegistry) after each
	// measurement chunk and once more at completion. The snapshot is
	// taken between engine runs on the worker goroutine and shares no
	// memory with the live counters, so the receiver may publish it to
	// other goroutines as-is — the serving tier's /metrics reads these.
	// Setting it implies chunked execution, as for Progress.
	OnStats func(snap []stats.NameValue)

	// OnProfile, when non-nil (and Profile true), receives a cheap live
	// snapshot of the profiler — wall time, cycles/sec, per-phase
	// seconds — after each measurement chunk and
	// once more at completion; the serving tier's per-job phase gauges
	// read these. The snapshot is a value taken between engine runs on
	// the worker goroutine. Setting it implies chunked execution, as for
	// Progress.
	OnProfile func(snap prof.Snapshot)
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
	// Values <= 0 select runtime.GOMAXPROCS(0). Workers == 1 runs the
	// jobs sequentially on the calling goroutine, preserving the
	// pre-runner behavior exactly.
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

	if workers == 1 {
		for i, j := range jobs {
			results[i] = runOne(i, j)
			if p.Progress != nil {
				p.Progress(i+1, len(jobs), results[i])
			}
		}
		return results
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
	// Progress spans both windows proportionally: the warm phase covers
	// [0, warmFrac], the measurement phase [warmFrac, 1].
	total := j.WarmCycles + j.MeasureCycles
	warmFrac := 0.0
	if total > 0 {
		warmFrac = float64(j.WarmCycles) / float64(total)
	}
	runChunked(sys, j, j.WarmCycles, 0, warmFrac, false)
	sys.ResetStats()
	if sm := sys.Sampler(); sm != nil && j.OnSample != nil {
		sm.SetRowSink(j.OnSample)
	}
	measureFrac := 1 - warmFrac
	if digestAt > 0 {
		// Split the window at the deferred attach point; both segments are
		// ordinary chunked runs, so progress/stats hooks see one window.
		startFrac := measureFrac * float64(digestAt) / float64(j.MeasureCycles)
		runChunked(sys, j, digestAt, warmFrac, startFrac, true)
		if err := sys.Instrument(core.Instruments{DigestInterval: j.DigestInterval}); err != nil {
			res.Err = fmt.Errorf("runner: job %d: %w", i, err)
			return res
		}
		runChunked(sys, j, j.MeasureCycles-digestAt, warmFrac+startFrac, measureFrac-startFrac, true)
	} else {
		runChunked(sys, j, j.MeasureCycles, warmFrac, measureFrac, true)
	}
	if j.Progress != nil {
		j.Progress(1)
	}
	if j.OnStats != nil {
		j.OnStats(sys.StatsRegistry().Snapshot())
	}
	if rec := sys.Profiler(); j.OnProfile != nil && rec != nil {
		j.OnProfile(rec.Snap())
	}
	res.Results = sys.Results()
	if sm := sys.Sampler(); sm != nil {
		res.Samples = sm.Series()
	}
	return res
}

// progressChunks bounds how many Run calls a chunked phase splits into;
// 64 keeps the per-call overhead invisible (each chunk is thousands of
// cycles for realistic windows) while giving ~1.5% progress granularity.
const progressChunks = 64

// runChunked advances the machine by cycles, either in one Run call (no
// hooks set — the historical path, zero behavior change) or in up to
// progressChunks bounded chunks, reporting base+span*done/cycles after
// each. Chunked execution is cycle-for-cycle identical to a single Run:
// Run steps every cycle, so Run(a) then Run(b) steps exactly the cycles
// of Run(a+b), and only the observation points differ.
// measuring gates the OnStats hook to the measurement window, where the
// counters mean something.
func runChunked(sys *core.System, j Job, cycles uint64, base, span float64, measuring bool) {
	rec := sys.Profiler()
	hooked := j.Progress != nil ||
		(measuring && (j.OnStats != nil || (j.OnProfile != nil && rec != nil)))
	if !hooked || cycles == 0 {
		sys.Run(cycles)
		return
	}
	chunk := cycles / progressChunks
	if chunk == 0 {
		chunk = 1
	}
	var done uint64
	for done < cycles {
		n := chunk
		if cycles-done < n {
			n = cycles - done
		}
		sys.Run(n)
		done += n
		if j.Progress != nil {
			f := base + span*float64(done)/float64(cycles)
			if f > 1 { // float round-off; the contract is [0, 1]
				f = 1
			}
			j.Progress(f)
		}
		if measuring && j.OnStats != nil {
			j.OnStats(sys.StatsRegistry().Snapshot())
		}
		if measuring && j.OnProfile != nil && rec != nil {
			j.OnProfile(rec.Snap())
		}
	}
}

// FirstError returns the first failed job's error in input order, or nil
// when every job succeeded — the policy the public sweep helpers use to
// keep their historical (results, error) signatures.
func FirstError(results []Result) error {
	for _, r := range results {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}
