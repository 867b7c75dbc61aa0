package nim_test

import (
	"bytes"
	"encoding/json"
	"testing"

	nim "repro"
)

// digestRun executes one short run with the full observability stack the
// digest contract must coexist with — DTM (which subsumes the thermal
// tracker) and the metrics sampler — optionally with the digest recorder
// attached. 3D schemes use the stacked four-layer machine, whose pillar
// buses carry the most cross-layer traffic. A non-zero chunk attaches the
// host profiler and cuts the measured window into Run calls of that many
// cycles, the way the runner executes a job with a progress hook.
func digestRun(t testing.TB, scheme nim.Scheme, attach bool, chunk uint64) nim.Results {
	cfg := nim.DefaultConfig(scheme)
	if cfg.Layers > 1 {
		cfg.Layers = 4
		cfg.StackCPUs = true
	}
	cfg.DTMPolicy = "all"
	bench, _ := nim.BenchmarkByName("mgrid", cfg.NumCPUs)
	sim, err := nim.NewSimulation(cfg, bench, 3)
	if err != nil {
		t.Fatal(err)
	}
	if chunk > 0 {
		sim.AttachProfile()
	}
	sim.Warm()
	sim.Start()
	sim.Run(5_000)
	sim.ResetStats()
	if _, err := sim.AttachDTM(500); err != nil {
		t.Fatal(err)
	}
	// Digest before the sampler, mirroring the runner: the sampler's
	// digest columns read the freshly folded chains.
	if attach {
		sim.AttachDigest(1_000)
	}
	sim.AttachSampler(1_000)
	const window = 20_000
	if chunk == 0 {
		chunk = window
	}
	for left := uint64(window); left > 0; left -= min(chunk, left) {
		sim.Run(min(chunk, left))
	}
	return sim.Results()
}

// TestDigestShardInvariance compares digest streams of the same machine
// executed two ways — every snapshot, every lane — for every scheme, with
// DTM, thermal and the sampler attached. It was written against the
// layer-sharded network path, since removed (DESIGN.md §15); what remains
// to vary is how the serial engine is driven: one Run call for the whole
// window, or uneven chunks with the host profiler attached. The streams
// must be byte-identical, and any divergence shows up as the exact cycle
// and subsystem that first differed.
func TestDigestShardInvariance(t *testing.T) {
	for _, scheme := range nim.Schemes() {
		t.Run(scheme.String(), func(t *testing.T) {
			whole := digestRun(t, scheme, true, 0)
			if whole.Digests == nil || whole.Digests.Records == 0 {
				t.Fatal("one-shot run produced no digest stream")
			}
			chunked := digestRun(t, scheme, true, 1_337)
			if chunked.Digests == nil {
				t.Fatal("chunked run produced no digest stream")
			}
			if chunked.Digests.Digest != whole.Digests.Digest {
				t.Errorf("chunked final digest %s != one-shot %s",
					chunked.Digests.Digest, whole.Digests.Digest)
			}
			a, b := whole.Digests.Stream, chunked.Digests.Stream
			if len(a) != len(b) {
				t.Fatalf("chunked stream has %d records, one-shot %d", len(b), len(a))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("chunked stream diverges at record %d (cycle %d):\none-shot %+v\nchunked  %+v",
						i, a[i].Cycle, a[i], b[i])
				}
			}
		})
	}
}

// TestDigestDoesNotPerturb is the observer contract: attaching the
// digest recorder changes no architectural result. Results are
// bit-identical with the Digests report stripped — the same bar the
// profiler meets (TestProfileDoesNotPerturb).
func TestDigestDoesNotPerturb(t *testing.T) {
	for _, scheme := range nim.Schemes() {
		t.Run(scheme.String(), func(t *testing.T) {
			plain := digestRun(t, scheme, false, 0)
			observed := digestRun(t, scheme, true, 0)
			if observed.Digests == nil {
				t.Fatal("attached run returned no Digests")
			}
			observed.Digests = nil
			pj, _ := json.Marshal(plain)
			oj, _ := json.Marshal(observed)
			if !bytes.Equal(pj, oj) {
				t.Fatalf("digest attachment changed results:\nplain    %s\nobserved %s", pj, oj)
			}
		})
	}
}

// TestDigestGolden pins the final digest of a short warmed run of every
// scheme. The other digest tests compare streams within one build; this
// one proves that simulated state, and the way it is folded, stay the
// same across commits. A refactor that should not change behaviour must
// leave these values alone; a change that means to alter behaviour
// updates them and says why.
func TestDigestGolden(t *testing.T) {
	golden := map[nim.Scheme]string{
		nim.CMPDNUCA:   "5c466c342a2b2d89",
		nim.CMPDNUCA2D: "da7f673ef3aae958",
		nim.CMPSNUCA3D: "71beebf70282e760",
		nim.CMPDNUCA3D: "bfe842d5eb243159",
	}
	for _, scheme := range nim.Schemes() {
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := nim.DefaultConfig(scheme)
			bench, _ := nim.BenchmarkByName("mgrid", cfg.NumCPUs)
			sim, err := nim.NewSimulation(cfg, bench, 1)
			if err != nil {
				t.Fatal(err)
			}
			sim.Warm()
			sim.Start()
			sim.AttachDigest(1_000)
			sim.Run(20_000)
			if got, want := sim.Results().Digests.Digest, golden[scheme]; got != want {
				t.Errorf("final digest %s, want %s", got, want)
			}
		})
	}
	// managed pins digestRun's machine: 3D schemes stacked to four layers
	// with the DTM loop, thermal tracker and sampler attached. It covers
	// the closed-loop actuators and the cross-layer pillar traffic the
	// rows above do not.
	managed := map[nim.Scheme]string{
		nim.CMPDNUCA:   "86a1a246c14cfd79",
		nim.CMPDNUCA2D: "16bd96423bec58ed",
		nim.CMPSNUCA3D: "c81e38e3a0045191",
		nim.CMPDNUCA3D: "997407109ef6ae4c",
	}
	t.Run("managed", func(t *testing.T) {
		for _, scheme := range nim.Schemes() {
			t.Run(scheme.String(), func(t *testing.T) {
				if got, want := digestRun(t, scheme, true, 0).Digests.Digest, managed[scheme]; got != want {
					t.Errorf("final digest %s, want %s", got, want)
				}
			})
		}
	})
}

// TestDigestRecordPathAllocs pins the record path at zero allocations
// once the stream is reserved: folding every subsystem of a live
// full-stack machine (DTM, thermal, sampler attached) heap-allocates
// nothing per snapshot.
func TestDigestRecordPathAllocs(t *testing.T) {
	cfg := nim.DefaultConfig(nim.CMPDNUCA3D)
	cfg.Layers = 4
	cfg.StackCPUs = true
	cfg.DTMPolicy = "all"
	bench, _ := nim.BenchmarkByName("mgrid", cfg.NumCPUs)
	sim, err := nim.NewSimulation(cfg, bench, 3)
	if err != nil {
		t.Fatal(err)
	}
	sim.Warm()
	sim.Start()
	sim.Run(2_000)
	sim.ResetStats()
	if _, err := sim.AttachDTM(500); err != nil {
		t.Fatal(err)
	}
	rec := sim.AttachDigest(1)
	sim.Run(2_000) // populate in-flight state for the walker to fold
	const rounds = 200
	rec.Reserve(len(rec.Records()) + rounds + 10)
	cycle := uint64(1 << 32)
	allocs := testing.AllocsPerRun(rounds, func() {
		cycle++
		rec.Tick(cycle)
	})
	if allocs > 0 {
		t.Errorf("record path allocates %.1f times per snapshot, want 0", allocs)
	}
}
