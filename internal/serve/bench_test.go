package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/runner"
)

// benchJob is the workload both arms simulate: small enough that the
// serving overhead is a visible fraction of the round-trip, big enough
// that the measurement is a real simulation and not pure HTTP.
const (
	benchWarm    = 1_000
	benchMeasure = 10_000
)

// BenchmarkServeOverhead measures the serving tax: the same job run by a
// direct runner.Run call versus a POST /jobs?wait=1 round-trip to the
// daemon over a real localhost listener. The seed varies per iteration so
// every daemon submission is a cache miss — otherwise the cache would
// answer from the second iteration on and the comparison would be
// meaningless. The hit arm is the other side of that: one job primed,
// then the same submission answered from the cache, body read in full.
func BenchmarkServeOverhead(b *testing.B) {
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			j := runner.Job{
				Config:        config.Default(config.CMPDNUCA3D),
				Benchmark:     "mgrid",
				WarmCycles:    benchWarm,
				MeasureCycles: benchMeasure,
				Seed:          uint64(i) + 1,
			}
			res := runner.Run([]runner.Job{j}, 1)[0]
			if res.Err != nil {
				b.Fatalf("direct run: %v", res.Err)
			}
		}
	})

	b.Run("daemon", func(b *testing.B) {
		url := benchDaemon(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := http.Post(url, "application/json", strings.NewReader(benchBody(uint64(i)+1)))
			if err != nil {
				b.Fatalf("submit: %v", err)
			}
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("submit: status %d", resp.StatusCode)
			}
			if hit := resp.Header.Get("X-Cache"); hit != "miss" {
				b.Fatalf("iteration %d was X-Cache %q, want miss (seed not defeating cache?)", i, hit)
			}
			resp.Body.Close()
		}
	})

	b.Run("hit", func(b *testing.B) {
		url := benchDaemon(b)
		body := benchBody(1)
		submit := func() (xCache string) {
			resp, err := http.Post(url, "application/json", strings.NewReader(body))
			if err != nil {
				b.Fatalf("submit: %v", err)
			}
			defer resp.Body.Close()
			if _, err := io.Copy(io.Discard, resp.Body); err != nil || resp.StatusCode != http.StatusOK {
				b.Fatalf("submit: status %d, body read error %v", resp.StatusCode, err)
			}
			return resp.Header.Get("X-Cache")
		}
		submit() // runs the job; every later submission is a hit
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if hit := submit(); hit != "hit" {
				b.Fatalf("resubmission %d was X-Cache %q, want hit", i, hit)
			}
		}
	})
}

// benchDaemon starts a one-worker daemon on a loopback listener for the
// length of the benchmark and returns its ?wait=1 submission URL.
func benchDaemon(b *testing.B) string {
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts.URL + "/jobs?wait=1"
}

// benchBody is the benchmark job with the given seed, unsampled.
func benchBody(seed uint64) string {
	return fmt.Sprintf(`{"scheme":"dnuca3d","benchmark":"mgrid","warm_cycles":%d,"measure_cycles":%d,"no_samples":true,"seed":%d}`,
		benchWarm, benchMeasure, seed)
}
