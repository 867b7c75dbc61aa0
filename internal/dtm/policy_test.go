package dtm

import (
	"testing"

	"repro/internal/config"
)

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in      string
		want    Policy
		wantErr bool
	}{
		{"", 0, false},
		{"none", 0, false},
		{"off", 0, false},
		{" None ", 0, false},
		{"all", PolicyAll, false},
		{"ALL", PolicyAll, false},
		{"veto", PolicyMigrationVeto, false},
		{"drowsy", PolicyDrowsy, false},
		{"duty", PolicyDutyCycle, false},
		{"reroute", PolicyReroute, false},
		{"veto,duty", PolicyMigrationVeto | PolicyDutyCycle, false},
		{"veto, drowsy ,reroute", PolicyMigrationVeto | PolicyDrowsy | PolicyReroute, false},
		{"veto,drowsy,duty,reroute", PolicyAll, false},
		{"bogus", 0, true},
		{"veto,bogus", 0, true},
		{"veto,,duty", 0, true},
	}
	for _, c := range cases {
		got, err := ParsePolicy(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("ParsePolicy(%q) error = %v, wantErr %v", c.in, err, c.wantErr)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("ParsePolicy(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestDTMActiveMatchesParsePolicy pins the one definition of "DTM off":
// for every spelling ParsePolicy accepts, config.DTMActive is true
// exactly when the parsed policy enables an actuator.
func TestDTMActiveMatchesParsePolicy(t *testing.T) {
	for _, s := range []string{"", "none", "off", "None", " OFF ", "all", "veto", "veto,duty"} {
		p, err := ParsePolicy(s)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", s, err)
		}
		if active := (config.Config{DTMPolicy: s}).DTMActive(); active != (p != 0) {
			t.Errorf("DTMPolicy %q: DTMActive() = %v, parsed policy %v", s, active, p)
		}
	}
}

func TestPolicyStringRoundTrip(t *testing.T) {
	for p := Policy(0); p <= PolicyAll; p++ {
		back, err := ParsePolicy(p.String())
		if err != nil {
			t.Fatalf("ParsePolicy(%q) = %v", p.String(), err)
		}
		if back != p {
			t.Errorf("round trip %v -> %q -> %v", p, p.String(), back)
		}
	}
}

func TestParseDuty(t *testing.T) {
	cases := []struct {
		in         string
		on, period int
		wantErr    bool
	}{
		{"", 1, 4, false},
		{"1/4", 1, 4, false},
		{"3/8", 3, 8, false},
		{" 1 / 2 ", 1, 2, false},
		{"4/4", 0, 0, true},  // on must be < period
		{"0/4", 0, 0, true},  // on must be >= 1
		{"5/4", 0, 0, true},  // on must be < period
		{"1/1", 0, 0, true},  // period must be >= 2
		{"1", 0, 0, true},    // missing separator
		{"a/b", 0, 0, true},  // not numeric
		{"-1/4", 0, 0, true}, // negative
	}
	for _, c := range cases {
		on, period, err := ParseDuty(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("ParseDuty(%q) error = %v, wantErr %v", c.in, err, c.wantErr)
			continue
		}
		if err == nil && (on != c.on || period != c.period) {
			t.Errorf("ParseDuty(%q) = %d/%d, want %d/%d", c.in, on, period, c.on, c.period)
		}
	}
}
