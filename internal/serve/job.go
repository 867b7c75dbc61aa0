package serve

import (
	"encoding/json"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/digest"
	"repro/internal/prof"
	"repro/internal/runner"
	"repro/internal/stats"
)

// JobRequest is the POST /jobs body. Either set Config to a complete
// machine description, or name a Scheme and let the Table 4 defaults plus
// the optional overrides build one. Omitted warm/measure windows default
// to runner.DefaultWarmCycles and runner.DefaultMeasureCycles, as on the
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
	// zero sample_interval selects the server's default, so every job is
	// streamable by default; set NoSamples to run without a sampler at
	// all (no live stream). A managed machine (dtm_policy) with no
	// thermal_interval steps its thermal loop at the sampling period. A
	// digested job's status carries a digest summary, and /metrics the
	// nimsim_job_digest_info family.
	core.Instruments
	NoSamples bool `json:"no_samples,omitempty"`

	// DigestVerify, when true (and DigestInterval non-zero), makes the
	// worker rerun the job without the daemon's hook and profiler after
	// the primary run and compare the two digest streams, publishing any
	// mismatch as nimsim_job_digest_mismatch_cycle — a paid-for,
	// on-demand audit that the observed, profiled primary run matched a
	// plain one (it roughly doubles the job's cost). It is NOT part of
	// the job identity (it changes no Results byte), so the flag on the
	// submission that first registers the job wins; coalesced and cached
	// submissions inherit it.
	DigestVerify bool `json:"digest_verify,omitempty"`

	// Overrides build the machine from Scheme (ignored when Config is
	// given).
	config.Overrides

	// Config, when non-nil, is the complete machine description and
	// takes the place of Scheme and the overrides.
	Config *config.Config `json:"config,omitempty"`
}

// buildJob normalizes a request into the runner job it describes, or
// rejects it. The returned job carries no hook; the worker adds it.
func (s *Server) buildJob(req JobRequest) (runner.Job, error) {
	var cfg config.Config
	if req.Config != nil {
		cfg = *req.Config
	} else {
		scheme := req.Scheme
		if scheme == "" {
			scheme = "dnuca3d"
		}
		var err error
		if cfg, err = req.Overrides.Build(scheme); err != nil {
			return runner.Job{}, err
		}
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
		j.SampleInterval = s.opts.DefaultSampleInterval
	}
	if j.Config.DTMActive() && j.ThermalInterval == 0 {
		// DTM needs the thermal loop; default its step to the sampling
		// period (or the sampler default) instead of failing the job.
		j.ThermalInterval = j.SampleInterval
		if j.ThermalInterval == 0 {
			j.ThermalInterval = s.opts.DefaultSampleInterval
		}
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
	run        runner.Job // hook-free template; the worker adds OnChunk

	// verify records the first submission's DigestVerify request; the
	// worker acts on it after the primary run (see Server.runJob).
	verify bool

	state    string
	fraction float64
	submits  int // total POSTs that mapped here (1 + hits + coalesces)
	created  time.Time
	finished time.Time

	header   []string
	rows     [][]float64
	counters []stats.NameValue
	profile  *prof.Snapshot // latest host-side phase snapshot, nil until the first measurement chunk

	digest        *digest.Report // final digest report, nil unless the job digested
	verified      bool           // hook-free reference rerun completed and streams compared
	mismatch      bool           // the reference comparison found a divergence
	mismatchCycle uint64
	mismatchLane  string

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

// setDigest publishes the run's final digest report.
func (rec *job) setDigest(rep *digest.Report) {
	rec.mu.Lock()
	rec.digest = rep
	rec.mu.Unlock()
}

// setVerify publishes the outcome of the reference digest comparison
// (see Server.verifyDigest).
func (rec *job) setVerify(mismatch bool, cycle uint64, lane string) {
	rec.mu.Lock()
	rec.verified = true
	rec.mismatch = mismatch
	rec.mismatchCycle = cycle
	rec.mismatchLane = lane
	rec.mu.Unlock()
}

// finish publishes the rendered Results and flips the state to done.
// The bytes are rendered exactly once and served verbatim from then on,
// which is what makes a cache hit byte-identical to the first run.
func (rec *job) finish(results []byte, now time.Time) {
	rec.mu.Lock()
	rec.results = results
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

// DigestStatus summarizes a digested job on the status API: the run's
// final 64-bit state digest plus, when DigestVerify was requested, the
// outcome of the comparison against a hook-free reference rerun.
type DigestStatus struct {
	Digest   string `json:"digest"`
	Interval uint64 `json:"interval"`
	Records  int    `json:"records"`
	// Verified reports that the hook-free reference rerun completed and
	// its digest stream was compared against the primary run's.
	Verified bool `json:"verified,omitempty"`
	// Mismatch, MismatchCycle, and MismatchLane report the comparison's
	// first point of departure, present only when the streams differed.
	Mismatch      bool   `json:"mismatch,omitempty"`
	MismatchCycle uint64 `json:"mismatch_cycle,omitempty"`
	MismatchLane  string `json:"mismatch_lane,omitempty"`
}

// status snapshots the record for the JSON API: the status document,
// which never carries Results, and the rendered results (nil until done)
// that writeStatus appends to it. Both come from one hold of mu, so
// results are never spliced onto a status from before the job finished.
func (rec *job) status() (JobStatus, []byte) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	st := JobStatus{
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
	}
	if rec.digest != nil {
		st.Digest = &DigestStatus{
			Digest:        rec.digest.Digest,
			Interval:      rec.digest.Interval,
			Records:       rec.digest.Records,
			Verified:      rec.verified,
			Mismatch:      rec.mismatch,
			MismatchCycle: rec.mismatchCycle,
			MismatchLane:  rec.mismatchLane,
		}
	}
	return st, rec.results
}
