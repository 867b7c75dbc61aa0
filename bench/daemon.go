package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/serve"
)

const (
	// clients is the closed-loop client count: each waits for its reply
	// before sending again, over its own connection. It matches the
	// daemon's worker count and the 2 CPUs the benchmark was sized on.
	clients = 2
	// daemonSetups is how many times a run starts a daemon to time its
	// set-up; the last one serves the measured phase.
	daemonSetups = 50
	// hitJobs is how many distinct jobs the hit workload primes and then
	// resubmits round-robin.
	hitJobs = 4
	// jobWarm and jobMeasure size every daemon job: short windows on the
	// headline machine, other fields at their defaults, so the sampler
	// and the always-on profiler are attached as for any user's job.
	jobWarm, jobMeasure = 5_000, 50_000
)

// daemon is an in-process serving tier on a loopback listener.
type daemon struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
}

// startDaemon starts a daemon and waits until /healthz answers 200.
func startDaemon() (*daemon, error) {
	srv := serve.New(serve.Options{Workers: clients})
	d := &daemon{
		srv: srv,
		ts:  httptest.NewServer(srv.Handler()),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients,
		}},
	}
	resp, err := d.client.Get(d.ts.URL + "/healthz")
	if err != nil {
		d.close()
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		d.close()
		return nil, fmt.Errorf("/healthz answered %s", resp.Status)
	}
	return d, nil
}

func (d *daemon) close() {
	d.client.CloseIdleConnections()
	d.ts.Close()
	d.srv.Close()
}

// setUpDaemon times daemonSetups daemon start-ups and returns the last
// daemon, running.
func setUpDaemon(m *measurement) (*daemon, error) {
	for i := 0; ; i++ {
		t0 := time.Now()
		d, err := startDaemon()
		if err != nil {
			return nil, err
		}
		m.setup = append(m.setup, time.Since(t0))
		if i == daemonSetups-1 {
			return d, nil
		}
		d.close()
	}
}

// jobRequest is the i-th distinct job of a run: its seed is derived from
// the run's seed, so the same run seed submits the same jobs.
func jobRequest(o opts, i int) serve.JobRequest {
	warm, measure := uint64(jobWarm), uint64(jobMeasure)
	if o.quick {
		warm, measure = warm/1000, measure/1000
	}
	return serve.JobRequest{
		Scheme: "dnuca3d", Benchmark: "mgrid",
		WarmCycles: &warm, MeasureCycles: &measure,
		Seed: mix(o.seed, uint64(i)),
	}
}

// mix derives a job seed from the run seed and the job index (SplitMix64).
func mix(seed, i uint64) uint64 {
	z := seed*0x9E3779B97F4A7C15 + i + 1
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// reply is one answered submission.
type reply struct {
	status serve.JobStatus
	cache  string // the X-Cache header
	// latency runs from sending the request to reading the last byte of
	// the response; decoding it is the benchmark's work, not the daemon's.
	latency time.Duration
}

// submit posts a job with ?wait=1, so the reply carries the finished
// job's results.
func (d *daemon) submit(req serve.JobRequest) (reply, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return reply{}, err
	}
	t0 := time.Now()
	resp, err := d.client.Post(d.ts.URL+"/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	r := reply{cache: resp.Header.Get("X-Cache"), latency: time.Since(t0)}
	if err != nil {
		return r, err
	}
	if resp.StatusCode != http.StatusOK {
		return r, fmt.Errorf("POST /jobs answered %s: %s", resp.Status, bytes.TrimSpace(raw))
	}
	if err := json.Unmarshal(raw, &r.status); err != nil {
		return r, fmt.Errorf("decoding job status: %w", err)
	}
	if r.status.State != serve.StateDone {
		return r, fmt.Errorf("job %s is %s: %s", r.status.ID, r.status.State, r.status.Error)
	}
	return r, nil
}

// closedLoop runs op on each client goroutine, handing out job indices in
// order, for as long as more(i) holds. It returns every op's outcome.
func closedLoop(more func(i int) bool, op func(i int) (reply, error)) []outcome {
	var next atomic.Int64
	per := make([][]outcome, clients)
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if !more(i) {
					return
				}
				r, err := op(i)
				per[c] = append(per[c], outcome{r.latency, err})
			}
		}()
	}
	wg.Wait()
	var all []outcome
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

type outcome struct {
	latency time.Duration
	err     error
}

// until keeps a closed loop going until the deadline, giving every client
// at least one operation.
func until(deadline time.Time) func(int) bool {
	return func(i int) bool { return i < clients || time.Now().Before(deadline) }
}

// record folds a closed loop's outcomes into the measurement: each
// successful submission is an operation and a unit of work.
func record(m *measurement, outs []outcome, busy time.Duration) {
	m.busy += busy
	for _, o := range outs {
		m.attempted++
		if o.err != nil {
			m.fail(1, "%v", o.err)
			continue
		}
		m.ops = append(m.ops, o.latency)
		m.work++
	}
}

// runMiss submits distinct jobs, so every submission is a cache miss that
// simulates: latency is the simulation plus the serving tax.
func runMiss(o opts) (*measurement, error) {
	m := &measurement{}
	d, err := setUpDaemon(m)
	if err != nil {
		return nil, err
	}
	defer d.close()
	var job0 []byte // written by the one client that submits job 0
	start := time.Now()
	outs := closedLoop(until(start.Add(o.seconds)), func(i int) (reply, error) {
		id := o.spans.begin("serve POST /jobs miss", 0)
		defer o.spans.end(id)
		r, err := d.submit(jobRequest(o, i))
		switch {
		case err != nil:
			return r, err
		case r.cache != "miss":
			return r, fmt.Errorf("job %d: X-Cache %q, want miss", i, r.cache)
		}
		if i == 0 {
			job0 = r.status.Results
		}
		return r, nil
	})
	record(m, outs, time.Since(start))
	if job0 != nil {
		checkJob0(m, o, job0)
	}
	return m, nil
}

// runHit primes hitJobs jobs, then resubmits them round-robin: every
// submission is a cache hit that simulates nothing, so only the serving
// tier (request decoding, job identity, registry, response encoding, HTTP)
// is on the path. Each hit must return its job's results byte for byte.
func runHit(o opts) (*measurement, error) {
	m := &measurement{}
	d, err := setUpDaemon(m)
	if err != nil {
		return nil, err
	}
	defer d.close()
	primed := make([][]byte, hitJobs)
	for _, out := range closedLoop(func(i int) bool { return i < hitJobs }, func(i int) (reply, error) {
		r, err := d.submit(jobRequest(o, i))
		if err == nil && r.cache != "miss" {
			err = fmt.Errorf("priming job %d: X-Cache %q, want miss", i, r.cache)
		}
		primed[i] = r.status.Results
		return r, err
	}) {
		if out.err != nil {
			return nil, out.err
		}
	}
	checkJob0(m, o, primed[0])

	start := time.Now()
	outs := closedLoop(until(start.Add(o.seconds)), func(i int) (reply, error) {
		id := o.spans.begin("serve POST /jobs hit", 0)
		defer o.spans.end(id)
		job := i % hitJobs
		r, err := d.submit(jobRequest(o, job))
		switch {
		case err != nil:
			return r, err
		case r.cache != "hit":
			return r, fmt.Errorf("job %d: X-Cache %q, want hit", job, r.cache)
		case !bytes.Equal(r.status.Results, primed[job]):
			return r, fmt.Errorf("job %d: hit results differ from the miss that computed them", job)
		}
		return r, nil
	})
	record(m, outs, time.Since(start))
	return m, nil
}

// checkJob0 sets the run's digest from job 0's results and checks them
// against the same job run directly through internal/runner: the daemon
// must answer exactly what the runner computes. The check counts as one
// attempted operation.
func checkJob0(m *measurement, o opts, results []byte) {
	m.attempted++
	var got core.Results
	if err := json.Unmarshal(results, &got); err != nil {
		m.fail(1, "decoding job 0 results: %v", err)
		return
	}
	m.digest = resultsDigest(got)
	req := jobRequest(o, 0)
	ref := runner.Run([]runner.Job{{
		Config: config.Default(config.CMPDNUCA3D), Benchmark: req.Benchmark,
		WarmCycles: *req.WarmCycles, MeasureCycles: *req.MeasureCycles, Seed: req.Seed,
	}}, 1)[0]
	switch {
	case ref.Err != nil:
		m.fail(1, "job 0 reference run: %v", ref.Err)
	case resultsDigest(ref.Results) != m.digest:
		m.fail(1, "job 0 results differ from the same job run directly")
	}
}
