package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/runner"
)

// jobID is the registry key of a normalized job.
func jobID(j runner.Job) string {
	id, _ := j.Identity()
	return id
}

// TestJobIDsPinned pins three job ids: a client may hold an id, so the
// encoding behind it must not drift. The values were recorded when the
// identity still lived in this package, before runner.Job.Identity.
func TestJobIDsPinned(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	for body, want := range map[string]string{
		`{}`:        "d0ad5fe693277948",
		tinyBody(1): "b6979ae936ebff6b",
		`{"scheme":"snuca3d","layers":4,"l2_mb":32,"dtm_policy":"all","trip_temp_c":70,"duty_cycle":"1/2","digest_interval":500}`: "a352ff8ab63ecfa3",
	} {
		var req JobRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		j, err := s.buildJob(req)
		if err != nil {
			t.Fatal(err)
		}
		if got := jobID(j); got != want {
			t.Errorf("%s: job id %s, want %s", body, got, want)
		}
	}
}

// TestJobIdentityDefaultsVsExplicit guards the cache key against
// normalization drift: a submission that relies on every default and one
// that spells the same values out explicitly describe the same run, so
// they must hash to the same job id.
func TestJobIdentityDefaultsVsExplicit(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()

	warm, measure := uint64(50_000), uint64(250_000)
	explicit := JobRequest{
		Scheme:        "dnuca3d",
		Benchmark:     "mgrid",
		WarmCycles:    &warm,
		MeasureCycles: &measure,
	}
	explicit.SampleInterval = defaultSampleInterval
	implicit := JobRequest{} // every field defaulted

	ja, err := s.buildJob(explicit)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := s.buildJob(implicit)
	if err != nil {
		t.Fatal(err)
	}
	if jobID(ja) != jobID(jb) {
		t.Errorf("explicit defaults hash to %s, implicit to %s — cache key drift",
			jobID(ja), jobID(jb))
	}
}

// TestJobIdentityFieldOrder: JSON field order is presentation, not
// semantics — two orderings of the same submission must collapse onto
// one id through the full decode -> normalize -> hash pipeline.
func TestJobIdentityFieldOrder(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()

	bodies := []string{
		`{"scheme":"dnuca3d","benchmark":"swim","seed":7,"warm_cycles":1000,"measure_cycles":4000,"layers":4,"stack_cpus":true}`,
		`{"stack_cpus":true,"layers":4,"measure_cycles":4000,"warm_cycles":1000,"seed":7,"benchmark":"swim","scheme":"dnuca3d"}`,
	}
	ids := make(map[string]bool)
	for _, body := range bodies {
		var req JobRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		j, err := s.buildJob(req)
		if err != nil {
			t.Fatal(err)
		}
		ids[jobID(j)] = true
	}
	if len(ids) != 1 {
		t.Errorf("field order produced %d distinct job ids, want 1", len(ids))
	}
}

// TestDigestJobIdentity pins the identity rule for the digest field:
// DigestInterval changes the Results bytes (the Digests report rides in
// them), so it must split the cache.
func TestDigestJobIdentity(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()

	base := JobRequest{Scheme: "dnuca3d", Benchmark: "mgrid", Seed: 3}
	id := func(req JobRequest) string {
		j, err := s.buildJob(req)
		if err != nil {
			t.Fatal(err)
		}
		return jobID(j)
	}
	plain := id(base)

	digested := base
	digested.DigestInterval = 500
	if id(digested) == plain {
		t.Error("digest_interval did not change the job id — digested and plain runs would share a cache entry")
	}
}

// TestDigestJobEndToEnd submits a digested job and checks the whole
// surface: the status API's digest summary, the Results payload, and the
// /metrics digest family.
func TestDigestJobEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})

	body := `{
		"scheme": "dnuca3d", "benchmark": "mgrid", "layers": 4, "stack_cpus": true,
		"warm_cycles": 1000, "measure_cycles": 4000, "sample_interval": 500,
		"seed": 5, "digest_interval": 500
	}`
	resp, out := post(t, ts.URL+"/jobs?wait=1", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /jobs?wait=1 = %d: %s", resp.StatusCode, out)
	}
	var st JobStatus
	if err := json.Unmarshal(out, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("job state %q: %s", st.State, out)
	}
	if st.Digest == nil {
		t.Fatalf("no digest summary on a digested job: %s", out)
	}
	if len(st.Digest.Digest) != 16 || st.Digest.Interval != 500 || st.Digest.Records != 8 {
		t.Errorf("digest summary wrong: %+v", st.Digest)
	}
	if !strings.Contains(string(st.Results), `"Digests"`) {
		t.Error("Results payload carries no Digests report")
	}

	_, metrics := get(t, ts.URL+"/metrics")
	m := string(metrics)
	info := `nimsim_job_digest_info{job="` + st.ID + `",digest="` + st.Digest.Digest + `",interval="500"} 1`
	if !strings.Contains(m, info+"\n") {
		t.Errorf("/metrics missing %s:\n%s", info, m)
	}
	// The daemon attaches no trace ring, so a dropped-event count could
	// only ever read 0; the family is not exported.
	if strings.Contains(m, "nimsim_job_dropped_events") {
		t.Errorf("/metrics exports nimsim_job_dropped_events, which can only read 0:\n%s", m)
	}
	// The daemon compares no digest streams (runner.Diverge does, and
	// TestDigestObserveDoesNotPerturb runs it on the daemon's hook), so it
	// exports no mismatch family.
	if strings.Contains(m, "nimsim_job_digest_mismatch") {
		t.Errorf("/metrics exports a digest mismatch family:\n%s", m)
	}
}

// TestDigestObserveDoesNotPerturb is the daemon's side of the observer
// contract: a job as a worker runs it, with a real record's observe hook
// and the host profiler, must digest exactly as the hook-free template
// does, snapshot for snapshot. The machine is TestDigestJobEndToEnd's.
func TestDigestObserveDoesNotPerturb(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	var req JobRequest
	body := `{"layers": 4, "stack_cpus": true, "warm_cycles": 1000, "measure_cycles": 4000,
		"sample_interval": 500, "seed": 5}`
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	plain, err := s.buildJob(req)
	if err != nil {
		t.Fatal(err)
	}
	id, configHash := plain.Identity()
	rec := newJob(id, configHash, plain, time.Now())
	rep, err := runner.Diverge(plain, rec.hooked(), 500)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Equal || rep.Records != 8 {
		t.Fatalf("hooked, profiled run against its template: equal=%v over %d snapshots (want 8); first divergence at cycle %d in %s",
			rep.Equal, rep.Records, rep.Cycle, rep.Lane)
	}
	if st, _ := rec.status(); st.Rows == 0 || rec.profile == nil || len(rec.counters) == 0 {
		t.Errorf("the hook published %d rows, profile %v and %d counters; want all three",
			st.Rows, rec.profile != nil, len(rec.counters))
	}
}
