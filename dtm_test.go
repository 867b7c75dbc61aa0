// End-to-end tests of the dynamic thermal management loop: the
// determinism contract (an armed controller that never trips perturbs
// nothing), per-policy actuator engagement on a hot stacked machine, and
// run-to-run reproducibility of the management report.
package nim_test

import (
	"bytes"
	"encoding/json"
	"testing"

	nim "repro"
)

// stackedConfig is the vertically stacked DNUCA-3D machine, the hottest
// Table 3 placement, managed by the given DTM policy and trip point.
func stackedConfig(policy string, tripC float64) nim.Config {
	cfg := nim.DefaultConfig(nim.CMPDNUCA3D)
	cfg.StackCPUs = true
	cfg.DTMPolicy = policy
	cfg.TripTempC = tripC
	return cfg
}

// dtmRun builds, warms, and settles the stacked machine and measures a
// short window with the thermal loop attached; an empty policy leaves it
// unmanaged.
func dtmRun(t *testing.T, policy string, tripC float64) nim.Results {
	t.Helper()
	sim := newSim(t, stackedConfig(policy, tripC), "mgrid", 3, nim.Instruments{ThermalInterval: 1_000})
	sim.Run(5_000)
	sim.ResetStats()
	sim.Run(30_000)
	return sim.Results()
}

// TestDTMDoesNotPerturbWhenDisabled is the determinism contract: a run
// whose controller arms every actuator but whose trip point no cell
// reaches never engages, and is bit-identical to a thermal-only run —
// reroute's pillar-penalty hook included.
func TestDTMDoesNotPerturbWhenDisabled(t *testing.T) {
	in := nim.Instruments{ThermalInterval: 1_000}
	thermalOnly := instrumentedRun{cfg: stackedConfig("", 0), in: in}
	d := checkNoPerturb(t, thermalOnly, instrumentedRun{cfg: stackedConfig("all", 500), in: in}).DTM
	if d == nil || d.Policy != "all" || d.TripEngagements != 0 {
		t.Fatalf("armed controller report %+v, want policy all and no trip engagements", d)
	}
}

// TestDTMPolicyEngagement drives each actuator on the stacked machine
// with the trip point lowered to 70 C, so the CPU columns trip within the
// short window, and checks that exactly the enabled actuator engaged.
func TestDTMPolicyEngagement(t *testing.T) {
	const trip = 70.0
	cases := []struct {
		policy string
		count  func(*nim.DTMReport) uint64
	}{
		{"veto", func(d *nim.DTMReport) uint64 { return d.MigrationVetoes }},
		{"drowsy", func(d *nim.DTMReport) uint64 { return d.BankWakeups }},
		{"duty", func(d *nim.DTMReport) uint64 { return d.ThrottleStalls }},
		{"reroute", func(d *nim.DTMReport) uint64 { return d.PillarDiversions }},
	}
	for _, c := range cases {
		t.Run(c.policy, func(t *testing.T) {
			r := dtmRun(t, c.policy, trip)
			d := r.DTM
			if d == nil {
				t.Fatal("no DTM report")
			}
			if d.TripEngagements == 0 {
				t.Fatalf("nothing tripped at %g C (peak %.2f C): the workload is not hot enough for this test", trip, d.PeakC)
			}
			if got := c.count(d); got == 0 {
				t.Errorf("policy %s never engaged: %+v", c.policy, d)
			}
			// Exactly the enabled actuator may engage.
			for _, other := range cases {
				if other.policy != c.policy && other.count(d) != 0 {
					t.Errorf("policy %s engaged actuator %s (%d times)", c.policy, other.policy, other.count(d))
				}
			}
			if c.policy == "drowsy" && d.DrowsyLeakSavedPJ <= 0 {
				t.Errorf("drowsy saved no leakage energy: %+v", d)
			}
		})
	}
}

// TestDTMDutyCycleCutsPeak checks the headline effect: duty-cycling a
// tripped core sheds its 8 W budget, so the managed stacked run peaks
// measurably below the unmanaged one.
func TestDTMDutyCycleCutsPeak(t *testing.T) {
	off := dtmRun(t, "", 0)
	duty := dtmRun(t, "duty", 0)
	if off.Thermal == nil || duty.Thermal == nil {
		t.Fatal("missing thermal reports")
	}
	if duty.Thermal.PeakC >= off.Thermal.PeakC {
		t.Errorf("duty-cycling did not cut the peak: managed %.2f C vs unmanaged %.2f C",
			duty.Thermal.PeakC, off.Thermal.PeakC)
	}
}

// TestDTMDeterministic checks the management loop's reproducibility: two
// identical managed runs produce identical results and reports.
func TestDTMDeterministic(t *testing.T) {
	a, _ := json.Marshal(dtmRun(t, "all", 70))
	b, _ := json.Marshal(dtmRun(t, "all", 70))
	if !bytes.Equal(a, b) {
		t.Fatalf("managed runs diverged:\nfirst  %s\nsecond %s", a, b)
	}
}
