package dtm

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/config"
)

// Policy is a bitmask of enabled DTM actuators. Policies compose freely;
// the zero value enables nothing.
type Policy uint8

const (
	// PolicyMigrationVeto blocks cache-line migration steps whose target
	// cluster sits on a hot cell.
	PolicyMigrationVeto Policy = 1 << iota
	// PolicyDrowsy puts banks on hot cells into a drowsy retention state:
	// leakage drops to Options.DrowsyLeakFrac of nominal, and accesses pay
	// Options.WakeupCycles extra latency.
	PolicyDrowsy
	// PolicyDutyCycle throttles a core whose cell is hot to issuing on
	// DutyOn of every DutyPeriod front-end slots.
	PolicyDutyCycle
	// PolicyReroute penalizes hot pillar columns during pillar selection,
	// biasing cross-layer traffic away from hotspots.
	PolicyReroute

	// PolicyAll enables every actuator.
	PolicyAll = PolicyMigrationVeto | PolicyDrowsy | PolicyDutyCycle | PolicyReroute
)

// policyNames maps the canonical flag spellings to their bits, in
// presentation order.
var policyNames = []struct {
	name string
	bit  Policy
}{
	{"veto", PolicyMigrationVeto},
	{"drowsy", PolicyDrowsy},
	{"duty", PolicyDutyCycle},
	{"reroute", PolicyReroute},
}

// ParsePolicy parses a policy specification: a config.DTMOff spelling
// such as "" or "none" (no actuators), "all", or a comma-separated subset
// of veto, drowsy, duty, reroute.
func ParsePolicy(s string) (Policy, error) {
	if config.DTMOff(s) {
		return 0, nil
	}
	if strings.EqualFold(strings.TrimSpace(s), "all") {
		return PolicyAll, nil
	}
	var p Policy
	for _, part := range strings.Split(s, ",") {
		part = strings.ToLower(strings.TrimSpace(part))
		found := false
		for _, pn := range policyNames {
			if part == pn.name {
				p |= pn.bit
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("dtm: unknown policy %q (want none, all, or a comma list of veto, drowsy, duty, reroute)", part)
		}
	}
	return p, nil
}

// Has reports whether every bit of q is enabled in p.
func (p Policy) Has(q Policy) bool { return p&q == q }

// String returns the canonical spelling ParsePolicy accepts.
func (p Policy) String() string {
	if p == 0 {
		return "none"
	}
	if p == PolicyAll {
		return "all"
	}
	var parts []string
	for _, pn := range policyNames {
		if p.Has(pn.bit) {
			parts = append(parts, pn.name)
		}
	}
	return strings.Join(parts, ",")
}

// ParseDuty parses a duty-cycle specification "N/M": a throttled core
// issues on N of every M front-end slots. "" selects the 1/4 default.
func ParseDuty(s string) (on, period int, err error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 1, 4, nil
	}
	num, den, ok := strings.Cut(s, "/")
	if ok {
		on, err = strconv.Atoi(strings.TrimSpace(num))
		if err == nil {
			period, err = strconv.Atoi(strings.TrimSpace(den))
		}
	}
	if !ok || err != nil || on < 1 || period < 2 || on >= period {
		return 0, 0, fmt.Errorf("dtm: invalid duty cycle %q (want N/M with 1 <= N < M, e.g. 1/4)", s)
	}
	return on, period, nil
}
