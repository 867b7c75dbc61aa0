package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/digest"
	"repro/internal/runner"
)

// Options configures a Server. The zero value serves on :8080 with
// GOMAXPROCS workers, a 64-deep queue, and 1000-cycle default sampling.
type Options struct {
	// Addr is the listen address for ListenAndServe (":8080" default).
	Addr string
	// Workers bounds concurrently running simulations; <= 0 selects
	// runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth bounds jobs accepted but not yet running; a full queue
	// rejects new submissions with 503 (backpressure). <= 0 selects 64.
	QueueDepth int
	// DefaultSampleInterval is the metrics sampling period (cycles) for
	// jobs that do not choose one; 0 selects 1000. Sampling is what makes
	// a job's /stream live, so the default keeps every job streamable.
	DefaultSampleInterval uint64
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// server's own mux — the deliberate way to share one listener between
	// the job API and the profiler (see PprofMux for a dedicated one).
	EnablePprof bool
	// DrainTimeout bounds how long ListenAndServe waits for open HTTP
	// connections (e.g. SSE streams) after shutdown begins; 0 selects 10s.
	// In-flight simulations are always run to completion regardless.
	DrainTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.Addr == "" {
		o.Addr = ":8080"
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.DefaultSampleInterval == 0 {
		o.DefaultSampleInterval = 1000
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 10 * time.Second
	}
	return o
}

// Server is the simulation-as-a-service daemon: a job registry that
// doubles as the result cache, a bounded worker pool over
// internal/runner, and the HTTP surface described in the package docs.
// Create with New (which starts the workers), serve with ListenAndServe
// or mount Handler on a listener of your own, and Close when done.
type Server struct {
	opts Options
	mux  *http.ServeMux

	mu       sync.Mutex
	jobs     map[string]*job // id → record; the registry IS the cache
	order    []string        // ids in first-submission order, for GET /jobs
	queue    chan *job
	draining bool

	wg        sync.WaitGroup // workers
	closeOnce sync.Once

	start time.Time
	m     daemonMetrics
}

// New builds a server and starts its worker pool. The returned server is
// ready: mount Handler() on any listener, or call ListenAndServe.
func New(opts Options) *Server {
	s := &Server{
		opts:  opts.withDefaults(),
		jobs:  make(map[string]*job),
		start: time.Now(),
	}
	s.queue = make(chan *job, s.opts.QueueDepth)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	if s.opts.EnablePprof {
		RegisterPprof(s.mux)
	}
	s.wg.Add(s.opts.Workers)
	for i := 0; i < s.opts.Workers; i++ {
		go s.worker()
	}
	return s
}

// Handler returns the server's HTTP handler, for mounting on an existing
// listener or an httptest server.
func (s *Server) Handler() http.Handler { return s.mux }

// ListenAndServe serves the HTTP API on Options.Addr until ctx is
// canceled (wire it to SIGINT via signal.NotifyContext for the
// conventional daemon lifecycle), then drains: the listener closes, open
// connections get DrainTimeout to finish, queued and running simulations
// run to completion, and only then does ListenAndServe return.
func (s *Server) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.opts.Addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: s.mux}
	go func() {
		<-ctx.Done()
		s.mu.Lock()
		s.draining = true
		s.mu.Unlock()
		shCtx, cancel := context.WithTimeout(context.Background(), s.opts.DrainTimeout)
		defer cancel()
		_ = httpSrv.Shutdown(shCtx)
	}()
	err = httpSrv.Serve(ln)
	s.Close()
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Addr returns the configured listen address.
func (s *Server) Addr() string { return s.opts.Addr }

// Close stops accepting jobs, waits for every queued and running
// simulation to finish, and releases the worker pool. Idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.draining = true
		close(s.queue)
		s.mu.Unlock()
		s.wg.Wait()
	})
}

func (s *Server) worker() {
	defer s.wg.Done()
	for rec := range s.queue {
		s.runJob(rec)
	}
}

// runJob executes one registered job on this worker goroutine, publishing
// progress, sampled rows, and counter and profiler snapshots into the
// record after every chunk (job.observe). The runner supplies panic/error
// capture; the record never leaves a terminal state, so a cached entry is
// immutable.
func (s *Server) runJob(rec *job) {
	rec.setState(StateRunning)
	j := rec.run
	j.OnChunk = rec.observe
	// Every job runs with the host profiler attached. The profiler is
	// provably non-perturbing (Results stay bit-identical, see
	// internal/prof), so attaching it unconditionally adds per-phase
	// wall-clock gauges to /metrics without touching the job identity —
	// a profiled run's cache entry still answers any submission.
	j.Profile = true
	res := runner.Run([]runner.Job{j}, 1)[0]
	if res.Err != nil {
		s.m.failed.Add(1)
		rec.fail(res.Err, time.Now())
		return
	}
	// Rendered here, once, exactly as writeJSON would indent the member
	// at depth 1 of the status document (prefix and indent "  "), so no
	// request ever passes the Results through the encoder again.
	b, err := json.MarshalIndent(res.Results, "  ", "  ")
	if err != nil {
		s.m.failed.Add(1)
		rec.fail(fmt.Errorf("marshaling results: %w", err), time.Now())
		return
	}
	if res.Results.Digests != nil {
		rec.setDigest(res.Results.Digests)
		s.verifyDigest(rec, res.Results.Digests)
	}
	s.m.completed.Add(1)
	// The registry keeps these bytes for the daemon's lifetime; the clone
	// drops the slack MarshalIndent allocates (cap is twice the compact size).
	rec.finish(bytes.Clone(b), time.Now())
}

// verifyDigest is the DigestVerify rerun: the same job without the
// primary run's hook and profiler. Its digest stream is compared against
// the primary run's; a mismatch names the first divergent cycle and
// subsystem on the status API and /metrics — the daemon catching an
// observer that perturbed the simulation in production rather than in
// CI. A failed rerun leaves the job unverified (the primary results
// stand).
func (s *Server) verifyDigest(rec *job, primary *digest.Report) {
	if !rec.verify {
		return
	}
	refRes := runner.Run([]runner.Job{rec.run}, 1)[0]
	if refRes.Err != nil || refRes.Results.Digests == nil {
		return
	}
	if div, ok := digest.Compare(primary.Stream, refRes.Results.Digests.Stream); ok {
		rec.setVerify(true, div.Cycle, div.Lane.String())
	} else {
		rec.setVerify(false, 0, "")
	}
}

// handleSubmit is POST /jobs: normalize, hash, and either return the
// already-registered job (cache hit when finished, coalesce when still in
// flight) or register and enqueue a new one. ?wait=1 blocks until the job
// reaches a terminal state; wait takes any strconv.ParseBool value, and
// anything else is rejected before a job is registered. The X-Cache
// header says which path was taken: "hit", "coalesced", or "miss".
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var wait bool
	if v := r.URL.Query().Get("wait"); v != "" {
		var err error
		if wait, err = strconv.ParseBool(v); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad wait parameter %q: want a boolean such as 1 or 0", v))
			return
		}
	}
	var req JobRequest
	dec := json.NewDecoder(r.Body)
	// A misspelled or retired field must fail loudly, not fall back to
	// its default and run a different job than the client asked for.
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding job request: %w", err))
		return
	}
	run, err := s.buildJob(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	id, configHash := run.Identity()

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, fmt.Errorf("server is draining"))
		return
	}
	rec, known := s.jobs[id]
	if known {
		rec.mu.Lock()
		rec.submits++
		state := rec.state
		rec.mu.Unlock()
		s.mu.Unlock()
		if terminal(state) {
			s.m.cacheHits.Add(1)
			w.Header().Set("X-Cache", "hit")
			writeStatus(w, http.StatusOK, rec)
			return
		}
		s.m.coalesced.Add(1)
		w.Header().Set("X-Cache", "coalesced")
		respondMaybeWait(w, r, rec, wait)
		return
	}
	rec = newJob(id, configHash, run, time.Now())
	rec.verify = req.DigestVerify && run.DigestInterval > 0
	select {
	case s.queue <- rec:
	default:
		s.mu.Unlock()
		s.m.rejected.Add(1)
		httpError(w, http.StatusServiceUnavailable,
			fmt.Errorf("job queue full (%d deep); retry later", s.opts.QueueDepth))
		return
	}
	s.jobs[id] = rec
	s.order = append(s.order, id)
	s.mu.Unlock()
	s.m.submitted.Add(1)
	w.Header().Set("X-Cache", "miss")
	respondMaybeWait(w, r, rec, wait)
}

// respondMaybeWait answers a submission of a job that was not finished:
// 202 with its status, or, when wait is set, 200 with the terminal
// status once the job gets there.
func respondMaybeWait(w http.ResponseWriter, r *http.Request, rec *job, wait bool) {
	if !wait {
		st, _ := rec.status()
		writeJSON(w, http.StatusAccepted, st)
		return
	}
	if !rec.awaitTerminal(r.Context()) {
		httpError(w, http.StatusRequestTimeout, fmt.Errorf("canceled while waiting for job %s", rec.id))
		return
	}
	writeStatus(w, http.StatusOK, rec)
}

// awaitTerminal blocks until the job finishes or ctx is canceled,
// reporting which (true = finished).
func (rec *job) awaitTerminal(ctx context.Context) bool {
	stop := context.AfterFunc(ctx, func() {
		rec.mu.Lock()
		rec.cond.Broadcast()
		rec.mu.Unlock()
	})
	defer stop()
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for !terminal(rec.state) && ctx.Err() == nil {
		rec.cond.Wait()
	}
	return terminal(rec.state)
}

// handleList is GET /jobs: every registered job in submission order,
// without result payloads.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	recs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		recs = append(recs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(recs))
	for i, rec := range recs {
		out[i], _ = rec.status()
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobStatus `json:"jobs"`
	}{out})
}

// handleStatus is GET /jobs/{id}: full status including Results once
// done. A finished job's Results bytes are served verbatim from the
// cache, so every read is byte-identical to the first.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	rec := s.lookup(r.PathValue("id"))
	if rec == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
		return
	}
	writeStatus(w, http.StatusOK, rec)
}

func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// handleHealthz is GET /healthz: 200 with a small status document while
// serving, 503 once draining — the conventional readiness contract.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	registered := len(s.jobs)
	queued := len(s.queue)
	s.mu.Unlock()
	body := struct {
		Status     string  `json:"status"`
		UptimeSec  float64 `json:"uptime_seconds"`
		Registered int     `json:"jobs_registered"`
		Queued     int     `json:"jobs_queued"`
		Workers    int     `json:"workers"`
	}{"ok", time.Since(s.start).Seconds(), registered, queued, s.opts.Workers}
	code := http.StatusOK
	if draining {
		body.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}

// statusBufs recycles writeStatus's response buffers. Each is the size of
// a job's results, so allocating one per hit would be most of a hit's
// garbage and set how often the collector runs under a stream of hits.
// A buffer goes back once Write returns: writers do not retain p.
var statusBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeStatus writes rec's status document. A finished job's document is
// the encoded status with its closing brace cut, then the results member
// whose value runJob rendered once — the bytes writeJSON would produce
// with Results filled in, because Results is JobStatus's last field —
// sent in one Write. Jobs without results take writeJSON itself.
func writeStatus(w http.ResponseWriter, code int, rec *job) {
	st, results := rec.status()
	if results == nil {
		writeJSON(w, code, st)
		return
	}
	buf := statusBufs.Get().(*bytes.Buffer)
	defer statusBufs.Put(buf)
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(st); err != nil {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("encoding job status: %w", err))
		return
	}
	buf.Truncate(buf.Len() - len("\n}\n"))
	buf.WriteString(",\n  \"results\": ")
	buf.Write(results)
	buf.WriteString("\n}\n")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes()) // a failed write means the client is gone; nothing to tell it
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, struct {
		Error string `json:"error"`
	}{err.Error()})
}
