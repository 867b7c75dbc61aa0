package serve

import (
	"cmp"
	"encoding/json"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/prof"
	"repro/internal/runner"
	"repro/internal/stats"
)

// JobRequest is the POST /jobs body. It names its machine as nimsim's
// flags do: a Scheme (default dnuca3d) whose Table 4 defaults the
// embedded overrides adjust. Omitted warm/measure windows default to
// runner.DefaultWarmCycles and runner.DefaultMeasureCycles, as on the
// command line; an explicit 0 is honored literally.
type JobRequest struct {
	Scheme    string `json:"scheme,omitempty"`
	Benchmark string `json:"benchmark,omitempty"`

	WarmCycles    *uint64 `json:"warm_cycles,omitempty"`
	MeasureCycles *uint64 `json:"measure_cycles,omitempty"`
	Seed          uint64  `json:"seed,omitempty"`

	// Instruments selects the job's observers (sample_interval,
	// thermal_interval, digest_interval, record_spans; see
	// core.Instruments), and all of them are part of the job identity. A
	// zero sample_interval samples every 1000 cycles, so every job is
	// streamable by default; set NoSamples to run without a sampler at
	// all (no live stream). A managed machine (dtm_policy) with no
	// thermal_interval steps its thermal loop at the sampling period. A
	// digested job's status carries a digest summary, and /metrics the
	// nimsim_job_digest_info family.
	core.Instruments
	NoSamples bool `json:"no_samples,omitempty"`

	// Overrides build the machine from Scheme.
	config.Overrides
}

// defaultSampleInterval is the sampling period, in cycles, of a job that
// chooses none: sampling makes /stream live, so every job streams.
const defaultSampleInterval = 1000

// buildJob normalizes a request into the runner job it describes, or
// rejects it. The returned job carries no hook; the worker adds it.
func (s *Server) buildJob(req JobRequest) (runner.Job, error) {
	cfg, err := req.Overrides.Build(cmp.Or(req.Scheme, "dnuca3d"))
	if err != nil {
		return runner.Job{}, err
	}
	j := runner.Job{
		Config:        cfg,
		Benchmark:     req.Benchmark,
		WarmCycles:    runner.DefaultWarmCycles,
		MeasureCycles: runner.DefaultMeasureCycles,
		Seed:          req.Seed,
		Instruments:   req.Instruments,
	}
	if j.Benchmark == "" {
		j.Benchmark = "mgrid"
	}
	if req.WarmCycles != nil {
		j.WarmCycles = *req.WarmCycles
	}
	if req.MeasureCycles != nil {
		j.MeasureCycles = *req.MeasureCycles
	}
	switch {
	case req.NoSamples:
		j.SampleInterval = 0
	case j.SampleInterval == 0:
		j.SampleInterval = defaultSampleInterval
	}
	if j.Config.DTMActive() && j.ThermalInterval == 0 {
		// DTM needs the thermal loop; default its step to the sampling
		// period (or the sampler default) instead of failing the job.
		j.ThermalInterval = cmp.Or(j.SampleInterval, defaultSampleInterval)
	}
	// A job that cannot run is refused here, instead of failing in a
	// worker and staying in the registry as a cached failed job.
	if err := j.Validate(); err != nil {
		return runner.Job{}, err
	}
	return j, nil
}

// Job states, in lifecycle order.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// job is one registry entry: the normalized runner job plus everything
// its worker has published so far. All mutable fields are guarded by mu;
// cond broadcasts on every publication (new row, fraction, state change)
// so SSE streams and ?wait=1 submissions can sleep instead of polling.
type job struct {
	mu   sync.Mutex
	cond *sync.Cond

	id         string
	configHash string     // config.CanonicalHash(run.Config), from run.Identity
	run        runner.Job // hook-free template; the worker runs hooked()

	state    string
	fraction float64
	submits  int // total POSTs that mapped here (1 + hits + coalesces)
	created  time.Time
	finished time.Time

	header   []string
	rows     [][]float64
	counters []stats.NameValue
	profile  *prof.Snapshot // latest host-side phase snapshot, nil until the first measurement chunk

	digest *DigestStatus // final digest summary, nil unless the job digested

	// results is the job's Results, rendered once by the worker with the
	// indentation writeJSON gives the status document's last member;
	// writeStatus splices it in verbatim. Nil until the job is done.
	results []byte
	errMsg  string
}

func newJob(id, configHash string, run runner.Job, now time.Time) *job {
	rec := &job{id: id, configHash: configHash, run: run, state: StateQueued, submits: 1, created: now}
	rec.cond = sync.NewCond(&rec.mu)
	return rec
}

// terminal reports whether state is one a job never leaves.
func terminal(state string) bool { return state == StateDone || state == StateFailed }

func (rec *job) setState(state string) {
	rec.mu.Lock()
	rec.state = state
	rec.cond.Broadcast()
	rec.mu.Unlock()
}

// observe is the job's runner OnChunk hook. It publishes what the daemon
// shows of a running job: the completion fraction, the sampler rows taken
// since the last chunk and, in the measurement window, a counter snapshot
// and a profiler snapshot. It runs on the worker goroutine between Run
// calls, so it reads the machine without a lock. The sampler never changes
// a row or its header once made and only appends rows, so the record
// shares the sampler's slices instead of copying them; the counter and
// profiler snapshots are values that share no memory with the machine.
func (rec *job) observe(sys *core.System, fraction float64, measuring bool) {
	var header []string
	var rows [][]float64
	if sm := sys.Sampler(); sm != nil {
		ts := sm.Series()
		header, rows = ts.Header, ts.Rows
	}
	var counters []stats.NameValue
	var profile *prof.Snapshot
	if measuring {
		counters = sys.StatsRegistry().Snapshot()
		if p := sys.Profiler(); p != nil {
			snap := p.Snap()
			profile = &snap
		}
	}
	rec.mu.Lock()
	rec.fraction = fraction
	if len(rows) > len(rec.rows) {
		rec.header, rec.rows = header, rows
	}
	if measuring {
		rec.counters, rec.profile = counters, profile
	}
	rec.cond.Broadcast()
	rec.mu.Unlock()
}

// finish publishes the rendered Results and the digest summary (nil for
// an undigested job), and flips the state to done. The bytes are rendered
// exactly once and served verbatim from then on, which is what makes a
// cache hit byte-identical to the first run.
func (rec *job) finish(results []byte, digest *DigestStatus, now time.Time) {
	rec.mu.Lock()
	rec.results = results
	rec.digest = digest
	rec.fraction = 1
	rec.state = StateDone
	rec.finished = now
	rec.cond.Broadcast()
	rec.mu.Unlock()
}

func (rec *job) fail(err error, now time.Time) {
	rec.mu.Lock()
	rec.errMsg = err.Error()
	rec.state = StateFailed
	rec.finished = now
	rec.cond.Broadcast()
	rec.mu.Unlock()
}

// JobStatus is the wire representation of a job on /jobs and /jobs/{id}.
// The server never fills Results: writeStatus encodes the rest and
// appends a finished job's results member, rendered once, after it.
type JobStatus struct {
	ID         string          `json:"id"`
	State      string          `json:"state"`
	Fraction   float64         `json:"fraction"`
	Submits    int             `json:"submits"`
	Scheme     string          `json:"scheme"`
	Benchmark  string          `json:"benchmark"`
	ConfigHash string          `json:"config_hash"`
	Created    time.Time       `json:"created"`
	Rows       int             `json:"rows_streamed"`
	Error      string          `json:"error,omitempty"`
	Digest     *DigestStatus   `json:"digest,omitempty"`
	Results    json.RawMessage `json:"results,omitempty"` // must stay last, where writeStatus splices it; TestStatusByteIdentity checks
}

// DigestStatus summarizes a digested job on the status API and
// /metrics: the run's final 64-bit state digest, its snapshot interval
// and how many snapshots it took. The record keeps only this, not the
// snapshot stream; runner.Diverge is the tool that compares streams.
type DigestStatus struct {
	Digest   string `json:"digest"`
	Interval uint64 `json:"interval"`
	Records  int    `json:"records"`
}

// status snapshots the record for the JSON API: the status document,
// which never carries Results, and the rendered results (nil until done)
// that writeStatus appends to it. Both come from one hold of mu, so
// results are never spliced onto a status from before the job finished.
func (rec *job) status() (JobStatus, []byte) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return JobStatus{
		ID:         rec.id,
		State:      rec.state,
		Fraction:   rec.fraction,
		Submits:    rec.submits,
		Scheme:     rec.run.Config.Scheme.String(),
		Benchmark:  rec.run.Benchmark,
		ConfigHash: rec.configHash,
		Created:    rec.created,
		Rows:       len(rec.rows),
		Error:      rec.errMsg,
		Digest:     rec.digest,
	}, rec.results
}
