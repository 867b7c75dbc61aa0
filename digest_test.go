package nim_test

import (
	"testing"

	nim "repro"
)

// managedRun is the full observability stack the digest contract must
// coexist with — DTM (which rides the thermal tracker) and the metrics
// sampler — optionally with the digest recorder attached. 3D schemes use
// the stacked four-layer machine, whose pillar buses carry the most
// cross-layer traffic. A non-zero chunk also attaches the host profiler.
func managedRun(scheme nim.Scheme, digests bool, chunk uint64) instrumentedRun {
	cfg := nim.DefaultConfig(scheme)
	if cfg.Layers > 1 {
		cfg.Layers = 4
		cfg.StackCPUs = true
	}
	cfg.DTMPolicy = "all"
	in := nim.Instruments{ThermalInterval: 500, SampleInterval: 1_000, Profile: chunk > 0}
	if digests {
		in.DigestInterval = 1_000
	}
	return instrumentedRun{cfg: cfg, in: in, chunk: chunk}
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
			whole := managedRun(scheme, true, 0).results(t)
			if whole.Digests == nil || whole.Digests.Records == 0 {
				t.Fatal("one-shot run produced no digest stream")
			}
			chunked := managedRun(scheme, true, 1_337).results(t)
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

// TestDigestDoesNotPerturb is the observer contract for the digest
// recorder, the same bar the profiler meets (TestProfileDoesNotPerturb).
func TestDigestDoesNotPerturb(t *testing.T) {
	for _, scheme := range nim.Schemes() {
		t.Run(scheme.String(), func(t *testing.T) {
			if checkNoPerturb(t, managedRun(scheme, false, 0), managedRun(scheme, true, 0)).Digests == nil {
				t.Fatal("attached run returned no Digests")
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
			sim := newSim(t, nim.DefaultConfig(scheme), 1, nim.Instruments{})
			if err := sim.Instrument(nim.Instruments{DigestInterval: 1_000}); err != nil {
				t.Fatal(err)
			}
			sim.Run(20_000)
			if got, want := sim.Results().Digests.Digest, golden[scheme]; got != want {
				t.Errorf("final digest %s, want %s", got, want)
			}
		})
	}
	// managed pins managedRun's machine: 3D schemes stacked to four layers
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
				if got, want := managedRun(scheme, true, 0).results(t).Digests.Digest, managed[scheme]; got != want {
					t.Errorf("final digest %s, want %s", got, want)
				}
			})
		}
	})
}

// TestDigestRecordPathAllocs pins the record path at zero allocations
// once the stream is reserved: folding every subsystem of a live
// managed machine (DTM and thermal attached) heap-allocates nothing per
// snapshot.
func TestDigestRecordPathAllocs(t *testing.T) {
	cfg := managedRun(nim.CMPDNUCA3D, false, 0).cfg
	sim := newSim(t, cfg, 3, nim.Instruments{ThermalInterval: 500, DigestInterval: 1})
	sim.Run(20)
	sim.ResetStats()
	rec := sim.DigestRecorder()
	sim.Run(20) // populate in-flight state for the walker to fold
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
