package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/config"
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
	explicit.SampleInterval = s.opts.DefaultSampleInterval
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

// TestJobIdentityConfigRoundTrip pins config.CanonicalHash against the
// two ways a machine reaches the server: named scheme (the server builds
// the config) and explicit Config (the client ships one, typically after
// a JSON round trip). The same machine must hash identically on both
// paths, and a marshal/unmarshal cycle must not change the hash.
func TestJobIdentityConfigRoundTrip(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()

	cfg := config.Default(config.CMPDNUCA3D)
	b, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var round config.Config
	if err := json.Unmarshal(b, &round); err != nil {
		t.Fatal(err)
	}
	if config.CanonicalHash(cfg) != config.CanonicalHash(round) {
		t.Fatal("CanonicalHash changed across a JSON round trip")
	}

	byScheme, err := s.buildJob(JobRequest{Scheme: "dnuca3d"})
	if err != nil {
		t.Fatal(err)
	}
	byConfig, err := s.buildJob(JobRequest{Config: &round})
	if err != nil {
		t.Fatal(err)
	}
	if jobID(byScheme) != jobID(byConfig) {
		t.Errorf("scheme-built job %s != explicit-config job %s for the same machine",
			jobID(byScheme), jobID(byConfig))
	}
}

// TestDigestJobIdentity pins the identity rules for the digest fields:
// DigestInterval changes the Results bytes (the Digests report rides in
// them), so it must split the cache; DigestVerify changes nothing a
// client reads back, so it must not.
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

	verified := digested
	verified.DigestVerify = true
	if id(verified) != id(digested) {
		t.Error("digest_verify changed the job id — verification is an audit, not a different run")
	}
}

// TestDigestJobEndToEnd submits a digested, verified job and checks the
// whole surface: the status API's digest summary, the Results payload,
// and the /metrics digest families.
func TestDigestJobEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})

	body := `{
		"scheme": "dnuca3d", "benchmark": "mgrid", "layers": 4, "stack_cpus": true,
		"warm_cycles": 1000, "measure_cycles": 4000, "sample_interval": 500,
		"seed": 5, "digest_interval": 500, "digest_verify": true
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
	if !st.Digest.Verified {
		t.Error("digest_verify requested but job not verified")
	}
	if st.Digest.Mismatch {
		t.Errorf("hooked, profiled run mismatched its hook-free reference at cycle %d in %s — an observer perturbed the simulation",
			st.Digest.MismatchCycle, st.Digest.MismatchLane)
	}
	if !strings.Contains(string(st.Results), `"Digests"`) {
		t.Error("Results payload carries no Digests report")
	}

	_, metrics := get(t, ts.URL+"/metrics")
	m := string(metrics)
	if !strings.Contains(m, `nimsim_job_digest_info{job=`) ||
		!strings.Contains(m, `digest="`+st.Digest.Digest+`"`) {
		t.Errorf("/metrics missing nimsim_job_digest_info for digest %s:\n%s", st.Digest.Digest, m)
	}
	if !strings.Contains(m, `verified="true"`) {
		t.Errorf("/metrics digest info not marked verified:\n%s", m)
	}
	// The daemon attaches no trace ring, so a dropped-event count could
	// only ever read 0; the family is not exported.
	if strings.Contains(m, "nimsim_job_dropped_events") {
		t.Errorf("/metrics exports nimsim_job_dropped_events, which can only read 0:\n%s", m)
	}
	if strings.Contains(m, "nimsim_job_digest_mismatch_cycle{") {
		t.Errorf("/metrics reports a digest mismatch for a matching run:\n%s", m)
	}
}
