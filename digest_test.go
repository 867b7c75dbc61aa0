package nim_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	nim "repro"
)

// digestRun executes one short run with the full observability stack the
// digest contract must coexist with — DTM (which subsumes the thermal
// tracker) and the metrics sampler — optionally sharded and optionally
// with the digest recorder attached. 3D schemes use the stacked
// four-layer machine so the serial and sharded variants describe the
// same hardware and their digest streams are comparable.
func digestRun(t testing.TB, scheme nim.Scheme, shards int, attach bool) nim.Results {
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
	defer sim.Close()
	sim.Warm()
	if shards > 1 {
		sim.SetShards(shards)
	}
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
	sim.Run(20_000)
	return sim.Results()
}

// TestDigestShardInvariance is the digest layer's reason to exist: a
// sharded run's digest stream — every snapshot, every lane — is
// byte-identical to the serial run's, for every scheme, with DTM,
// thermal, and the sampler all attached. Any divergence the sharded
// network path ever introduces shows up here as the exact cycle and
// subsystem that first differed.
func TestDigestShardInvariance(t *testing.T) {
	for _, scheme := range nim.Schemes() {
		t.Run(scheme.String(), func(t *testing.T) {
			serial := digestRun(t, scheme, 1, true)
			if serial.Digests == nil || serial.Digests.Records == 0 {
				t.Fatal("serial run produced no digest stream")
			}
			for _, shards := range []int{2, 4} {
				sharded := digestRun(t, scheme, shards, true)
				if sharded.Digests == nil {
					t.Fatalf("shards=%d run produced no digest stream", shards)
				}
				if sharded.Digests.Digest != serial.Digests.Digest {
					t.Errorf("shards=%d final digest %s != serial %s",
						shards, sharded.Digests.Digest, serial.Digests.Digest)
				}
				a, b := serial.Digests.Stream, sharded.Digests.Stream
				if len(a) != len(b) {
					t.Fatalf("shards=%d stream has %d records, serial %d", shards, len(b), len(a))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("shards=%d stream diverges at record %d (cycle %d):\nserial  %+v\nsharded %+v",
							shards, i, a[i].Cycle, a[i], b[i])
					}
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
	check := func(t *testing.T, scheme nim.Scheme, shards int) {
		plain := digestRun(t, scheme, shards, false)
		observed := digestRun(t, scheme, shards, true)
		if observed.Digests == nil {
			t.Fatal("attached run returned no Digests")
		}
		observed.Digests = nil
		pj, _ := json.Marshal(plain)
		oj, _ := json.Marshal(observed)
		if !bytes.Equal(pj, oj) {
			t.Fatalf("digest attachment changed results:\nplain    %s\nobserved %s", pj, oj)
		}
	}
	for _, scheme := range nim.Schemes() {
		t.Run(scheme.String(), func(t *testing.T) { check(t, scheme, 1) })
	}
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			check(t, nim.CMPDNUCA3D, shards)
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
			defer sim.Close()
			sim.Warm()
			sim.Start()
			sim.AttachDigest(1_000)
			sim.Run(20_000)
			if got, want := sim.Results().Digests.Digest, golden[scheme]; got != want {
				t.Errorf("final digest %s, want %s", got, want)
			}
		})
	}
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
	defer sim.Close()
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
