package serve

import (
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/prof"
)

// buildVersion is the module version stamped into the binary, resolved
// once for the nimsim_build_info metric ("dev" for unstamped builds,
// e.g. `go run` or a plain `go build` of the work tree).
var buildVersion = func() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		return bi.Main.Version
	}
	return "dev"
}()

// BuildVersion reports the module version stamped into the binary — the
// same string nimsim_build_info and the BENCH_*.json host stamps carry
// ("dev" for unstamped builds). Exported for `nimsim -version`.
func BuildVersion() string { return buildVersion }

// daemonMetrics are the server's own counters, updated from handler and
// worker goroutines; atomics keep /metrics race-free without sharing the
// registry lock.
type daemonMetrics struct {
	submitted  atomic.Uint64 // new jobs accepted and enqueued
	completed  atomic.Uint64 // jobs finished successfully
	failed     atomic.Uint64 // jobs finished with an error
	cacheHits  atomic.Uint64 // POSTs answered from a finished job
	coalesced  atomic.Uint64 // POSTs folded onto an in-flight job
	rejected   atomic.Uint64 // POSTs refused by queue backpressure
	sseClients atomic.Int64  // currently connected /stream subscribers
}

// handleMetrics is GET /metrics in Prometheus text exposition format:
// daemon-level counters and gauges, plus per-job completion fractions and
// the per-job simulator counters published through the runner's race-safe
// stats.Set snapshots (a running job's numbers update every measurement
// chunk; a finished job's freeze at the final snapshot).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	recs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		recs = append(recs, s.jobs[id])
	}
	queued := len(s.queue)
	s.mu.Unlock()

	var b strings.Builder
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter("nimsim_jobs_submitted_total", "New jobs accepted and enqueued.", s.m.submitted.Load())
	counter("nimsim_jobs_completed_total", "Jobs finished successfully.", s.m.completed.Load())
	counter("nimsim_jobs_failed_total", "Jobs finished with an error.", s.m.failed.Load())
	counter("nimsim_cache_hits_total", "Submissions answered from a finished job's cached results.", s.m.cacheHits.Load())
	counter("nimsim_coalesced_total", "Submissions folded onto an identical in-flight job.", s.m.coalesced.Load())
	counter("nimsim_rejected_total", "Submissions refused by queue backpressure.", s.m.rejected.Load())
	gauge("nimsim_jobs_queued", "Jobs accepted but not yet running.", float64(queued))
	gauge("nimsim_jobs_registered", "Jobs in the registry (the result cache).", float64(len(recs)))
	gauge("nimsim_sse_clients", "Currently connected /stream subscribers.", float64(s.m.sseClients.Load()))
	gauge("nimsim_workers", "Simulation worker pool size.", float64(s.opts.Workers))
	gauge("nimsim_uptime_seconds", "Seconds since the daemon started.", time.Since(s.start).Seconds())
	fmt.Fprintf(&b, "# HELP nimsim_build_info Build metadata as labels; the value is always 1.\n# TYPE nimsim_build_info gauge\nnimsim_build_info{version=%q,go_version=%q} 1\n",
		buildVersion, runtime.Version())

	running := 0
	type jobRow struct {
		id       string
		state    string
		fraction float64
		counters map[string]uint64
		profile  *prof.Snapshot
		digest   *DigestStatus // nil unless the job digested
	}
	rows := make([]jobRow, 0, len(recs))
	for _, rec := range recs {
		rec.mu.Lock()
		jr := jobRow{id: rec.id, state: rec.state, fraction: rec.fraction, profile: rec.profile, digest: rec.digest}
		if len(rec.counters) > 0 {
			jr.counters = make(map[string]uint64, len(rec.counters))
			for _, nv := range rec.counters {
				jr.counters[nv.Name] = nv.Value
			}
		}
		rec.mu.Unlock()
		if jr.state == StateRunning {
			running++
		}
		rows = append(rows, jr)
	}
	gauge("nimsim_jobs_running", "Jobs currently executing on a worker.", float64(running))
	gauge("nimsim_jobs_inflight", "Jobs accepted but not yet finished (queued + running).", float64(queued+running))

	fmt.Fprintf(&b, "# HELP nimsim_job_progress Completion fraction of each registered job.\n# TYPE nimsim_job_progress gauge\n")
	for _, jr := range rows {
		fmt.Fprintf(&b, "nimsim_job_progress{job=%q,state=%q} %g\n", jr.id, jr.state, jr.fraction)
	}
	fmt.Fprintf(&b, "# HELP nimsim_job_counter Per-job simulator counters (cumulative over the measurement window).\n# TYPE nimsim_job_counter counter\n")
	for _, jr := range rows {
		names := make([]string, 0, len(jr.counters))
		for n := range jr.counters {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&b, "nimsim_job_counter{job=%q,counter=%q} %d\n", jr.id, n, jr.counters[n])
		}
	}

	// Host-side phase profile, from the profiler every job runs with
	// (see runJob): where each job's wall-clock goes, live while it runs
	// and frozen at the final snapshot once done.
	fmt.Fprintf(&b, "# HELP nimsim_job_phase_seconds Host wall-clock seconds attributed to each simulation-loop phase, per job.\n# TYPE nimsim_job_phase_seconds gauge\n")
	for _, jr := range rows {
		if jr.profile == nil {
			continue
		}
		for p := 0; p < prof.NumPhases; p++ {
			if jr.profile.PhaseSeconds[p] == 0 {
				continue
			}
			fmt.Fprintf(&b, "nimsim_job_phase_seconds{job=%q,phase=%q} %g\n",
				jr.id, prof.Phase(p).String(), jr.profile.PhaseSeconds[p])
		}
	}
	fmt.Fprintf(&b, "# HELP nimsim_job_cycles_per_sec Simulated cycles per host wall-clock second, per job.\n# TYPE nimsim_job_cycles_per_sec gauge\n")
	for _, jr := range rows {
		if jr.profile == nil {
			continue
		}
		fmt.Fprintf(&b, "nimsim_job_cycles_per_sec{job=%q} %g\n", jr.id, jr.profile.CyclesPerSec)
	}

	// State digests: the run's final 64-bit digest as a label (info-style
	// metric, value always 1 — 64-bit digests do not fit a float64).
	fmt.Fprintf(&b, "# HELP nimsim_job_digest_info Final 64-bit state digest of each digested job as a label; the value is always 1.\n# TYPE nimsim_job_digest_info gauge\n")
	for _, jr := range rows {
		if jr.digest == nil {
			continue
		}
		fmt.Fprintf(&b, "nimsim_job_digest_info{job=%q,digest=%q,interval=\"%d\"} 1\n",
			jr.id, jr.digest.Digest, jr.digest.Interval)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = fmt.Fprint(w, b.String())
}
