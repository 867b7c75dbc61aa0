package main

import (
	"testing"

	nim "repro"
)

// TestThermalInterval pins the one rule both run paths (one-shot and
// -diverge) use: the thermal loop attaches when the report was asked for
// or when the policy names an actuator. A policy that names none ("off",
// "none", in any case) attaches nothing, as on the daemon.
func TestThermalInterval(t *testing.T) {
	for _, tc := range []struct {
		policy  string
		managed bool
	}{
		{"off", false}, {"none", false}, {"OFF", false}, {"", false}, {"all", true},
	} {
		cfg := nim.DefaultConfig(nim.CMPDNUCA3D)
		cfg.DTMPolicy = tc.policy
		for _, asked := range []bool{false, true} {
			want := uint64(0)
			if asked || tc.managed {
				want = 1000
			}
			if got, err := thermalInterval(cfg, asked, 1000); err != nil || got != want {
				t.Errorf("-dtm %q, -thermal=%v: interval %d, %v; want %d", tc.policy, asked, got, err, want)
			}
			_, err := thermalInterval(cfg, asked, 0)
			if needed := want != 0; (err != nil) != needed {
				t.Errorf("-dtm %q, -thermal=%v, -tinterval 0: error %v, want one: %v", tc.policy, asked, err, needed)
			}
		}
	}
}
