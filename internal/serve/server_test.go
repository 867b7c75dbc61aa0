package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
)

// tinyBody is a small but real job: a full 3D machine, short windows,
// sampling fast enough to produce a healthy row count.
func tinyBody(seed uint64) string {
	return fmt.Sprintf(`{
		"scheme": "dnuca3d", "benchmark": "mgrid",
		"warm_cycles": 1000, "measure_cycles": 6000,
		"sample_interval": 500, "seed": %d
	}`, seed)
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestSubmitPollResult walks the basic service path: submit, poll status
// to completion, check fraction and Results.
func TestSubmitPollResult(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	resp, body := post(t, ts.URL+"/jobs", tinyBody(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d, want 202: %s", resp.StatusCode, body)
	}
	if xc := resp.Header.Get("X-Cache"); xc != "miss" {
		t.Fatalf("X-Cache = %q, want miss", xc)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || (st.State != StateQueued && st.State != StateRunning) {
		t.Fatalf("submit status = %+v", st)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, body = get(t, ts.URL+"/jobs/"+st.ID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /jobs/%s = %d", st.ID, resp.StatusCode)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == StateDone || st.State == StateFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %q", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.State != StateDone {
		t.Fatalf("job failed: %s", st.Error)
	}
	if st.Fraction != 1 {
		t.Fatalf("done job fraction = %v, want 1", st.Fraction)
	}
	if len(st.Results) == 0 {
		t.Fatal("done job has no results")
	}
	var res struct {
		IPC      float64 `json:"IPC"`
		L2Hits   uint64  `json:"L2Hits"`
		Cycles   uint64  `json:"Cycles"`
		Scheme   string  `json:"Scheme"`
		BenchRun string  `json:"Benchmark"`
	}
	if err := json.Unmarshal(st.Results, &res); err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.L2Hits == 0 {
		t.Fatalf("results look empty: %s", st.Results)
	}
	if st.Rows == 0 {
		t.Fatal("no sampled rows recorded despite sample_interval")
	}
}

// TestCacheHitByteIdentical is the determinism ⇒ cacheability contract: a
// second identical submission answers 200 with X-Cache: hit and Results
// bytes identical to the first run's, without running anything.
func TestCacheHitByteIdentical(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})

	resp, body := post(t, ts.URL+"/jobs?wait=1", tinyBody(42))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST ?wait=1 = %d: %s", resp.StatusCode, body)
	}
	var first JobStatus
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.State != StateDone {
		t.Fatalf("first run state = %q: %s", first.State, first.Error)
	}
	submitted := s.m.submitted.Load()

	resp, body = post(t, ts.URL+"/jobs", tinyBody(42))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit = %d, want 200", resp.StatusCode)
	}
	if xc := resp.Header.Get("X-Cache"); xc != "hit" {
		t.Fatalf("X-Cache = %q, want hit", xc)
	}
	var second JobStatus
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if second.ID != first.ID {
		t.Fatalf("cache hit returned job %s, first run was %s", second.ID, first.ID)
	}
	if !bytes.Equal(second.Results, first.Results) {
		t.Fatalf("cached Results not byte-identical:\nfirst:  %s\nsecond: %s", first.Results, second.Results)
	}
	if got := s.m.submitted.Load(); got != submitted {
		t.Fatalf("cache hit enqueued a new job (submitted %d → %d)", submitted, got)
	}
	if s.m.cacheHits.Load() == 0 {
		t.Fatal("cache hit not counted")
	}

	// A different seed is a different identity: it must miss.
	resp, _ = post(t, ts.URL+"/jobs", tinyBody(43))
	if xc := resp.Header.Get("X-Cache"); xc != "miss" {
		t.Fatalf("different seed X-Cache = %q, want miss", xc)
	}
}

// TestStatusByteIdentity is the oracle for rendering results once: each
// response that carries a finished record — the ?wait=1 completion, the
// cache hit and GET /jobs/{id} — must equal, byte for byte, writeJSON of
// the record's status with Results set to the compact form of the stored
// bytes, which is how the encoder rendered those responses before. It
// also fails if Results stops being JobStatus's last field, because the
// splice always puts the member last.
func TestStatusByteIdentity(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	for _, tc := range []struct {
		name, body string
		state      string
		member     string // a Results field the job must carry
	}{
		{"done", tinyBody(11), StateDone, `"L2Hits"`},
		{"digested", `{"warm_cycles":1000,"measure_cycles":4000,"sample_interval":500,
			"seed":12,"digest_interval":500,"digest_verify":true}`, StateDone, `"Digests"`},
		{"thermal+dtm", `{"dtm_policy":"all","warm_cycles":1000,"measure_cycles":4000,
			"sample_interval":500,"thermal_interval":500}`, StateDone, `"DTM"`},
		{"failed", `{"warm_cycles":0,"measure_cycles":0,"seed":13}`, StateFailed, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.state == StateFailed {
				registerFailed(t, s, tc.body)
			}
			var id string
			check := func(endpoint string, resp *http.Response, body []byte) {
				t.Helper()
				var st JobStatus
				if err := json.Unmarshal(body, &st); err != nil {
					t.Fatalf("%s: %v: %s", endpoint, err, body)
				}
				if resp.StatusCode != http.StatusOK || st.State != tc.state ||
					!strings.Contains(string(st.Results), tc.member) {
					t.Fatalf("%s = %d, state %q: %s", endpoint, resp.StatusCode, st.State, body)
				}
				id = st.ID
				want := encoderRendering(t, s.lookup(id))
				if !bytes.Equal(body, want) {
					t.Errorf("%s body differs from the encoder's rendering:\ngot:  %s\nwant: %s", endpoint, body, want)
				}
			}
			resp, body := post(t, ts.URL+"/jobs?wait=1", tc.body)
			check("POST ?wait=1", resp, body)
			resp, body = post(t, ts.URL+"/jobs", tc.body)
			if xc := resp.Header.Get("X-Cache"); xc != "hit" {
				t.Fatalf("resubmit X-Cache = %q, want hit", xc)
			}
			check("cache hit", resp, body)
			resp, body = get(t, ts.URL+"/jobs/"+id)
			check("GET /jobs/{id}", resp, body)
		})
	}
}

// registerFailed registers a failed record under body's job id. buildJob
// refuses every request that would fail in a worker, so no request can
// produce one, but the registry still serves failed records.
func registerFailed(t *testing.T, s *Server, body string) {
	t.Helper()
	var req JobRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	run, err := s.buildJob(req)
	if err != nil {
		t.Fatal(err)
	}
	id, configHash := run.Identity()
	rec := newJob(id, configHash, run, time.Now())
	rec.fail(errors.New("simulated worker failure"), time.Now())
	s.mu.Lock()
	s.jobs[id] = rec
	s.order = append(s.order, id)
	s.mu.Unlock()
}

// TestStatusConcurrentReads reads two finished jobs from several
// goroutines at once: writeStatus's pooled buffers must never hand one
// response's bytes to another.
func TestStatusConcurrentReads(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})
	var urls [2]string
	var want [2][]byte
	for i := range urls {
		_, body := post(t, ts.URL+"/jobs?wait=1", tinyBody(uint64(21+i)))
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		urls[i] = ts.URL + "/jobs/" + st.ID
		want[i] = encoderRendering(t, s.lookup(st.ID))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 25; n++ {
				i := (g + n) % 2
				resp, err := http.Get(urls[i])
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || !bytes.Equal(body, want[i]) {
					t.Errorf("GET %s: %v, body differs from the encoder's rendering", urls[i], err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// encoderRendering is rec's status document as writeJSON renders it with
// the results inside the JobStatus.
func encoderRendering(t *testing.T, rec *job) []byte {
	t.Helper()
	st, results := rec.status()
	if results != nil {
		var compact bytes.Buffer
		if err := json.Compact(&compact, results); err != nil {
			t.Fatal(err)
		}
		st.Results = compact.Bytes()
	}
	w := httptest.NewRecorder()
	writeJSON(w, http.StatusOK, st)
	return w.Body.Bytes()
}

// TestWaitFalseDoesNotBlock: wait=0 and wait=false mean no wait, so a new
// job answers 202 while it is still queued or running.
func TestWaitFalseDoesNotBlock(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	for i, v := range []string{"0", "false"} {
		body := fmt.Sprintf(`{"warm_cycles":1000,"measure_cycles":20000,"no_samples":true,"seed":%d}`, 300+i)
		resp, out := post(t, ts.URL+"/jobs?wait="+v, body)
		var st JobStatus
		if err := json.Unmarshal(out, &st); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted || terminal(st.State) {
			t.Errorf("POST ?wait=%s = %d, state %q; want 202 before the job finishes", v, resp.StatusCode, st.State)
		}
	}
}

// TestCoalesceInFlight pins duplicate-submission coalescing: with the
// single worker busy on a filler job, two identical submissions of a
// queued job map onto one registry entry and one execution.
func TestCoalesceInFlight(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})

	// Occupy the only worker so the next job stays queued.
	resp, _ := post(t, ts.URL+"/jobs", tinyBody(100))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("filler submit = %d", resp.StatusCode)
	}

	resp, body := post(t, ts.URL+"/jobs", tinyBody(200))
	if xc := resp.Header.Get("X-Cache"); xc != "miss" {
		t.Fatalf("first submit X-Cache = %q, want miss", xc)
	}
	var first JobStatus
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}

	resp, body = post(t, ts.URL+"/jobs", tinyBody(200))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("duplicate submit = %d, want 202", resp.StatusCode)
	}
	if xc := resp.Header.Get("X-Cache"); xc != "coalesced" {
		t.Fatalf("duplicate submit X-Cache = %q, want coalesced", xc)
	}
	var dup JobStatus
	if err := json.Unmarshal(body, &dup); err != nil {
		t.Fatal(err)
	}
	if dup.ID != first.ID {
		t.Fatalf("duplicate got job %s, original %s", dup.ID, first.ID)
	}
	if dup.Submits != 2 {
		t.Fatalf("submits = %d, want 2", dup.Submits)
	}
	if s.m.coalesced.Load() != 1 {
		t.Fatalf("coalesced counter = %d, want 1", s.m.coalesced.Load())
	}

	// Both jobs drain; the registry holds exactly two entries.
	resp, body = post(t, ts.URL+"/jobs?wait=1", tinyBody(200))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wait on coalesced job = %d: %s", resp.StatusCode, body)
	}
	_, body = get(t, ts.URL+"/jobs")
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 2 {
		t.Fatalf("registry has %d jobs, want 2 (filler + coalesced)", len(list.Jobs))
	}
}

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	event string
	data  string
}

// readSSE consumes an SSE body until the stream closes, returning every
// frame.
func readSSE(t *testing.T, resp *http.Response) []sseEvent {
	t.Helper()
	defer resp.Body.Close()
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.event != "" {
				events = append(events, cur)
			}
			cur = sseEvent{}
		}
	}
	return events
}

// TestStreamLiveAndReplay covers both SSE paths: a subscriber connected
// while the job runs receives header, every row, and the done event; a
// late subscriber gets a full replay. The rows must match the final
// status's row count — the stream drops nothing.
func TestStreamLiveAndReplay(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})

	// A longer measurement so the stream has something to follow live.
	body := `{"scheme":"dnuca3d","benchmark":"swim","warm_cycles":2000,"measure_cycles":30000,"sample_interval":500,"seed":9}`
	resp, out := post(t, ts.URL+"/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, out)
	}
	var st JobStatus
	if err := json.Unmarshal(out, &st); err != nil {
		t.Fatal(err)
	}

	streamResp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	if ct := streamResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream Content-Type = %q", ct)
	}
	events := readSSE(t, streamResp)
	checkStream(t, events)
	liveRows := countRows(events)

	// Late subscriber: the job is done; the whole series replays.
	streamResp, err = http.Get(ts.URL + "/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	replay := readSSE(t, streamResp)
	checkStream(t, replay)
	if replayRows := countRows(replay); replayRows != liveRows {
		t.Fatalf("replay has %d rows, live stream had %d", replayRows, liveRows)
	}

	// The final status agrees on the row count.
	_, out = get(t, ts.URL+"/jobs/"+st.ID)
	if err := json.Unmarshal(out, &st); err != nil {
		t.Fatal(err)
	}
	if st.Rows != liveRows {
		t.Fatalf("status rows_streamed = %d, stream delivered %d", st.Rows, liveRows)
	}
}

func countRows(events []sseEvent) int {
	n := 0
	for _, e := range events {
		if e.event == "row" {
			n++
		}
	}
	return n
}

// checkStream validates SSE framing: header first, then rows of matching
// width with strictly increasing cycles, then exactly one done event.
func checkStream(t *testing.T, events []sseEvent) {
	t.Helper()
	if len(events) == 0 {
		t.Fatal("empty SSE stream")
	}
	if events[0].event != "header" {
		t.Fatalf("first event = %q, want header", events[0].event)
	}
	var header []string
	if err := json.Unmarshal([]byte(events[0].data), &header); err != nil {
		t.Fatal(err)
	}
	if len(header) == 0 || header[0] != "cycle" {
		t.Fatalf("header = %v", header)
	}
	last := events[len(events)-1]
	if last.event != "done" {
		t.Fatalf("last event = %q (%s), want done", last.event, last.data)
	}
	prevCycle := -1.0
	rows := 0
	for _, e := range events[1 : len(events)-1] {
		if e.event != "row" {
			t.Fatalf("unexpected event %q mid-stream", e.event)
		}
		var row []float64
		if err := json.Unmarshal([]byte(e.data), &row); err != nil {
			t.Fatal(err)
		}
		if len(row) != len(header) {
			t.Fatalf("row width %d, header width %d", len(row), len(header))
		}
		if row[0] <= prevCycle {
			t.Fatalf("cycles not increasing: %v after %v", row[0], prevCycle)
		}
		prevCycle = row[0]
		rows++
	}
	if rows == 0 {
		t.Fatal("stream carried no rows")
	}
	var done struct {
		Rows int `json:"rows"`
	}
	if err := json.Unmarshal([]byte(last.data), &done); err != nil {
		t.Fatal(err)
	}
	if done.Rows != rows {
		t.Fatalf("done event says %d rows, stream carried %d", done.Rows, rows)
	}
}

// TestHealthzAndMetrics checks the observability endpoints' content.
func TestHealthzAndMetrics(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})

	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	var hz struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
	}
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.Workers != 1 {
		t.Fatalf("healthz body = %s", body)
	}

	if resp, body := post(t, ts.URL+"/jobs?wait=1", tinyBody(7)); resp.StatusCode != http.StatusOK {
		t.Fatalf("job = %d: %s", resp.StatusCode, body)
	}

	resp, body = get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		"nimsim_jobs_submitted_total 1",
		"nimsim_jobs_completed_total 1",
		"nimsim_cache_hits_total 0",
		"nimsim_jobs_registered 1",
		"# TYPE nimsim_job_progress gauge",
		`counter="l2_hits"`,
		`counter="flit_hops"`,
		"nimsim_uptime_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}

	// Draining flips healthz to 503.
	s.Close()
	resp, body = get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503: %s", resp.StatusCode, body)
	}
}

// TestQueueBackpressure: a full queue answers 503 instead of blocking or
// growing without bound.
func TestQueueBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1})

	// Jobs long enough that the single worker cannot drain the queue
	// while the submissions arrive. Distinct seeds prevent coalescing.
	slow := func(seed uint64) string {
		return fmt.Sprintf(`{"scheme":"dnuca3d","benchmark":"mgrid","warm_cycles":0,"measure_cycles":300000,"no_samples":true,"seed":%d}`, seed)
	}
	// Worker takes the first job; the second fills the 1-deep queue; a
	// later one must bounce.
	post(t, ts.URL+"/jobs", slow(1))
	post(t, ts.URL+"/jobs", slow(2))
	rejected := false
	for seed := uint64(3); seed < 8; seed++ {
		resp, _ := post(t, ts.URL+"/jobs", slow(seed))
		if resp.StatusCode == http.StatusServiceUnavailable {
			rejected = true
			break
		}
	}
	if !rejected {
		t.Fatal("no submission was rejected despite a saturated queue")
	}
	if s.m.rejected.Load() == 0 {
		t.Fatal("rejected counter not incremented")
	}
}

// TestDTMJobDefaultsThermal: a managed job without thermal_interval runs
// its thermal loop at the sampling period instead of failing, and its
// Results carry both the Thermal and the DTM reports.
func TestDTMJobDefaultsThermal(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	_, out := post(t, ts.URL+"/jobs?wait=1", `{"dtm_policy":"all","warm_cycles":1000,"measure_cycles":4000,"sample_interval":500}`)
	var st struct {
		Results struct {
			Thermal *struct{ IntervalCycles uint64 }
			DTM     *struct{ Policy string }
		}
	}
	if err := json.Unmarshal(out, &st); err != nil || st.Results.Thermal == nil ||
		st.Results.Thermal.IntervalCycles != 500 || st.Results.DTM == nil {
		t.Fatalf("DTM job (%v): %s; want a 500-cycle thermal step and a DTM report", err, out)
	}
}

// TestBadRequests: malformed JSON, unknown scheme, unknown request
// fields, unparseable DTM strings, machines that cannot be built, an
// unknown benchmark, a non-boolean wait, unknown job id.
func TestBadRequests(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})

	if resp, _ := post(t, ts.URL+"/jobs", "{not json"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body = %d, want 400", resp.StatusCode)
	}
	if resp, _ := post(t, ts.URL+"/jobs", `{"scheme":"nosuch"}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown scheme = %d, want 400", resp.StatusCode)
	}
	// Unknown fields are rejected, not ignored: a misspelled window would
	// otherwise queue the default 250k-cycle run, and a retired field
	// would be dropped without the client learning it is gone.
	// So are DTM strings that do not parse (the check Instrument runs):
	// such a job would otherwise warm and settle a machine before failing.
	// So is a complete config whose L1 associativity a set cannot hold:
	// building that machine would panic in the worker. So is one with
	// more clusters than a probe mask holds. So is a machine whose CPUs
	// do not fit its placement: eight stacked CPUs on two pillars of two
	// layers. So is an unknown benchmark. Each would otherwise fail in a
	// worker and stay in the registry as a cached failed job. A negative
	// override is refused by name too, instead of building the default
	// machine and answering with the default job's cached results.
	configBody := func(mutate func(*config.Config)) string {
		cfg := config.Default(config.CMPDNUCA3D)
		mutate(&cfg)
		b, err := json.Marshal(JobRequest{Config: &cfg})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for field, body := range map[string]string{
		"measure_cyles": `{"scheme":"dnuca3d","measure_cyles":1000}`,
		"shards":        `{"scheme":"dnuca3d","shards":2}`,
		"bogus":         `{"scheme":"dnuca3d","dtm_policy":"bogus"}`,
		"9/4":           `{"scheme":"dnuca3d","dtm_policy":"duty","duty_cycle":"9/4"}`,
		"L1Ways":        configBody(func(c *config.Config) { c.L1Ways = 3 }),
		"Clusters":      configBody(func(c *config.Config) { c.L2.Clusters = 128 }),
		"placement":     `{"scheme":"dnuca3d","pillars":2,"stack_cpus":true}`,
		"nosuch":        `{"benchmark":"nosuch"}`,
		"NumPillars":    `{"pillars":-1}`,
		"Layers":        `{"layers":-2}`,
		"L2 size":       `{"l2_mb":-16}`,
	} {
		if resp, out := post(t, ts.URL+"/jobs", body); resp.StatusCode != http.StatusBadRequest ||
			!strings.Contains(string(out), field) {
			t.Errorf("bad field %q = %d (%s), want 400 naming it", field, resp.StatusCode, out)
		}
	}
	// ?wait is a boolean: a value that does not parse fails before the
	// job is registered, rather than blocking or not on a guess.
	for _, v := range []string{"yes", "2", "on"} {
		if resp, out := post(t, ts.URL+"/jobs?wait="+v, tinyBody(1)); resp.StatusCode != http.StatusBadRequest ||
			!strings.Contains(string(out), "wait") {
			t.Errorf("wait=%s = %d (%s), want 400 naming wait", v, resp.StatusCode, out)
		}
	}
	if n := s.m.submitted.Load(); n != 0 {
		t.Errorf("bad requests registered %d jobs, want 0", n)
	}
	if resp, _ := get(t, ts.URL+"/jobs/deadbeef"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job id = %d, want 404", resp.StatusCode)
	}
	if resp, _ := get(t, ts.URL+"/jobs/deadbeef/stream"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job stream = %d, want 404", resp.StatusCode)
	}
}
