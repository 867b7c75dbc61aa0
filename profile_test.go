package nim_test

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	nim "repro"
)

// profiledRun executes one short Figure 13-style run, optionally with
// the host profiler attached, and returns its Results. The config mirrors
// TestThermalDoesNotPerturb.
func profiledRun(t testing.TB, scheme nim.Scheme, attach bool) nim.Results {
	cfg := nim.DefaultConfig(scheme)
	bench, _ := nim.BenchmarkByName("mgrid", cfg.NumCPUs)
	sim, err := nim.NewSimulation(cfg, bench, 3)
	if err != nil {
		t.Fatal(err)
	}
	sim.Warm()
	if attach {
		sim.AttachProfile()
	}
	sim.Start()
	sim.Run(5_000)
	sim.ResetStats()
	sim.Run(20_000)
	return sim.Results()
}

// TestProfileDoesNotPerturb is the profiler's core contract: it measures
// the simulator, not the simulated machine, so attaching it changes no
// architectural result — bit-identical Results across every scheme. The
// Profile report itself is the only allowed difference.
func TestProfileDoesNotPerturb(t *testing.T) {
	for _, scheme := range nim.Schemes() {
		t.Run(scheme.String(), func(t *testing.T) {
			plain := profiledRun(t, scheme, false)
			observed := profiledRun(t, scheme, true)
			if observed.Profile == nil {
				t.Fatal("attached run returned no Profile")
			}
			observed.Profile = nil
			pj, _ := json.Marshal(plain)
			oj, _ := json.Marshal(observed)
			if !bytes.Equal(pj, oj) {
				t.Fatalf("profiler attachment changed results:\nplain    %s\nobserved %s", pj, oj)
			}
		})
	}
}

// TestProfileReportSanity checks the report's arithmetic on a real run:
// phase shares sum to ~100% of loop wall time, the cycle count matches
// the cycles the engine ran while attached, and the network tick is
// timed as its own phase.
func TestProfileReportSanity(t *testing.T) {
	r := profiledRun(t, nim.CMPDNUCA3D, true)
	p := r.Profile
	if p == nil {
		t.Fatal("no Profile in Results")
	}
	if p.Cycles != 25_000 {
		t.Errorf("profiled cycles = %d, want 25000 (settle + measure)", p.Cycles)
	}
	if p.WallSeconds <= 0 || p.CyclesPerSec <= 0 {
		t.Errorf("degenerate wall clock: %v s, %v cycles/sec", p.WallSeconds, p.CyclesPerSec)
	}
	var shares float64
	var netTicks uint64
	for _, ph := range p.Phases {
		if ph.Share < 0 || ph.Seconds < 0 {
			t.Errorf("phase %s has negative share/time: %+v", ph.Phase, ph)
		}
		shares += ph.Share
		if ph.Phase == "net-serial" {
			netTicks = ph.Count
		}
	}
	if math.Abs(shares-1) > 0.02 {
		t.Errorf("phase shares sum to %.4f, want ~1 (the engine residual closes the budget)", shares)
	}
	if netTicks == 0 || netTicks != p.Steps {
		t.Errorf("net-serial phase timed %d fabric ticks over %d steps, want one per step", netTicks, p.Steps)
	}
	if p.Host.NumCPU <= 0 || p.Host.GoVersion == "" {
		t.Errorf("host provenance incomplete: %+v", p.Host)
	}
}
