package runner

import (
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/digest"
)

// divergeBase is the common half of every bisection pair: the stacked
// four-layer machine, short windows.
func divergeBase() Job {
	cfg := config.Default(config.CMPDNUCA3D)
	cfg.Layers = 4
	cfg.StackCPUs = true
	return Job{
		Config:        cfg,
		Benchmark:     "mgrid",
		WarmCycles:    2_000,
		MeasureCycles: 8_000,
		Seed:          1,
	}
}

// TestDivergeEqual: a plain job against the same job with the profiler,
// an odd-interval sampler and an OnChunk hook that reads what the daemon
// reads (sampler rows, counter and profiler snapshots) must come back
// equal with matching final digests — the bisector attesting the observer
// contract rather than finding phantom divergences.
func TestDivergeEqual(t *testing.T) {
	a := divergeBase()
	b := a
	b.Profile = true
	b.SampleInterval = 777
	b.OnChunk = func(sys *core.System, _ float64, measuring bool) {
		if sm := sys.Sampler(); sm != nil {
			_ = sm.Series()
		}
		if measuring {
			_ = sys.StatsRegistry().Snapshot()
			_ = sys.Profiler().Snap()
		}
	}
	rep, err := Diverge(a, b, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Equal {
		t.Fatalf("plain vs observed job reported divergence at cycle %d in %s", rep.Cycle, rep.Lane)
	}
	if rep.DigestA != rep.DigestB || rep.DigestA == "" {
		t.Errorf("equal runs with different final digests: %s vs %s", rep.DigestA, rep.DigestB)
	}
	if rep.Records != 8 {
		t.Errorf("compared %d snapshots, want 8 (cycles 2000..9000 every 1000)", rep.Records)
	}
}

// TestDivergeSeedPerturbation: a perturbed seed makes the workloads
// differ from the first warm cycle on, so the bisector must report a
// divergence, refine it to an exact cycle no later than the first
// coarse snapshot, and name a valid lane. Both runs sample, and the
// refinement reruns keep the sampler, whose digest recorder attaches
// after it.
func TestDivergeSeedPerturbation(t *testing.T) {
	a := divergeBase()
	a.SampleInterval = 500
	b := a
	b.Seed = 2
	rep, err := Diverge(a, b, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Equal {
		t.Fatal("seed-perturbed pair reported equal")
	}
	if rep.DigestA == rep.DigestB {
		t.Errorf("diverged runs share final digest %s", rep.DigestA)
	}
	if !rep.Refined {
		t.Error("refinement pass did not run")
	}
	if rep.Cycle > rep.CoarseCycle {
		t.Errorf("refined cycle %d after coarse hit %d", rep.Cycle, rep.CoarseCycle)
	}
	// The measurement window steps cycles [warm, warm+measure), so the
	// first snapshot digests the warm boundary cycle itself — and a seed
	// perturbation has already diverged by then.
	if rep.CoarseCycle != a.WarmCycles {
		t.Errorf("coarse divergence at cycle %d, want the first snapshot (%d)",
			rep.CoarseCycle, a.WarmCycles)
	}
	valid := false
	for l := 0; l < digest.NumLanes; l++ {
		if rep.Lane == digest.Lane(l).String() {
			valid = true
		}
	}
	if !valid {
		t.Errorf("divergence lane %q is not a known subsystem", rep.Lane)
	}
}

// TestDivergeForcesWindows: mismatched windows on the variant are
// overridden so the streams align snapshot-for-snapshot.
func TestDivergeForcesWindows(t *testing.T) {
	a := divergeBase()
	b := a
	b.WarmCycles, b.MeasureCycles = 1, 100 // would misalign if honored
	rep, err := Diverge(a, b, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Equal || rep.Records != 8 {
		t.Fatalf("window-forced pair: equal=%v records=%d, want equal over 8 snapshots",
			rep.Equal, rep.Records)
	}
}

// TestDivergeValidatesFirst: an invalid variant fails before either run
// starts, with an error naming run B; the base's OnChunk hook would run
// after its first chunk.
func TestDivergeValidatesFirst(t *testing.T) {
	a := divergeBase()
	a.OnChunk = func(*core.System, float64, bool) { t.Error("run A started although run B is invalid") }
	for name, mutate := range map[string]func(*Job){
		"benchmark": func(b *Job) { b.Benchmark = "nope" },
		"NumCPUs":   func(b *Job) { b.Config.NumCPUs = 0 },
		"duty":      func(b *Job) { b.Config.DTMPolicy, b.Config.DutyCycle, b.ThermalInterval = "duty", "9/4", 1_000 },
		"thermal":   func(b *Job) { b.Config.DTMPolicy = "all" },
	} {
		b := divergeBase()
		mutate(&b)
		if _, err := Diverge(a, b, 1_000); err == nil || !strings.Contains(err.Error(), "run B") {
			t.Errorf("%s: Diverge = %v, want an error naming run B", name, err)
		}
	}
}
