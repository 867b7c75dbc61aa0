// Package config defines the simulated system configuration (the paper's
// Table 4), the four evaluated schemes, and the derivation of the concrete
// 3D topology: mesh dimensions, cluster tiling, pillar positions, and CPU
// placement.
package config

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/cache"
)

// Scheme selects one of the four L2 organizations compared in Section 5.2.
type Scheme int

const (
	// CMPDNUCA is the prior 2D approach of Beckmann & Wood with perfect
	// search: CPUs on the chip edges, dynamic migration, one layer.
	CMPDNUCA Scheme = iota
	// CMPDNUCA2D is the paper's 2D scheme: CPUs surrounded by cache banks
	// mid-cluster, dynamic migration, one layer.
	CMPDNUCA2D
	// CMPSNUCA3D is the paper's static 3D scheme: multiple layers with
	// pillar buses but no cache-line migration.
	CMPSNUCA3D
	// CMPDNUCA3D is the paper's full 3D scheme with migration.
	CMPDNUCA3D
)

// String returns the paper's name for the scheme.
func (s Scheme) String() string {
	switch s {
	case CMPDNUCA:
		return "CMP-DNUCA"
	case CMPDNUCA2D:
		return "CMP-DNUCA-2D"
	case CMPSNUCA3D:
		return "CMP-SNUCA-3D"
	case CMPDNUCA3D:
		return "CMP-DNUCA-3D"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// Migrates reports whether the scheme performs dynamic cache-line migration.
func (s Scheme) Migrates() bool { return s != CMPSNUCA3D }

// Is3D reports whether the scheme stacks multiple device layers.
func (s Scheme) Is3D() bool { return s == CMPSNUCA3D || s == CMPDNUCA3D }

// PerfectSearch reports whether the scheme locates lines without probe
// traffic (the CMP-DNUCA baseline is simulated with perfect search, as in
// the paper).
func (s Scheme) PerfectSearch() bool { return s == CMPDNUCA }

// ParseScheme resolves the short scheme names used on the command line
// and in job submissions, in any case.
func ParseScheme(name string) (Scheme, error) {
	switch strings.ToLower(name) {
	case "dnuca":
		return CMPDNUCA, nil
	case "dnuca2d":
		return CMPDNUCA2D, nil
	case "snuca3d":
		return CMPSNUCA3D, nil
	case "dnuca3d":
		return CMPDNUCA3D, nil
	}
	return 0, fmt.Errorf("unknown scheme %q (want dnuca, dnuca2d, snuca3d, dnuca3d)", name)
}

// Overrides are the deltas from a scheme's Table 4 defaults that the
// paper's design space varies — layers (Figure 18), pillars (Figure 17),
// L2 size (Figure 16), stacked CPUs (Table 3) — plus the DTM knobs. The
// JSON names are the daemon's wire names; nimsim binds the same fields
// to its machine flags. A zero value keeps the default.
type Overrides struct {
	Layers    int     `json:"layers,omitempty"`
	Pillars   int     `json:"pillars,omitempty"`
	L2MB      int     `json:"l2_mb,omitempty"`
	StackCPUs bool    `json:"stack_cpus,omitempty"`
	DTMPolicy string  `json:"dtm_policy,omitempty"`
	TripTempC float64 `json:"trip_temp_c,omitempty"`
	DutyCycle string  `json:"duty_cycle,omitempty"`
}

// Build returns the named scheme's Default with the overrides applied.
// Every non-zero value applies, negative ones included, so that a bad
// value is refused by name instead of building the default machine. Build
// does not validate the result; NewTopology does.
func (o Overrides) Build(scheme string) (Config, error) {
	s, err := ParseScheme(scheme)
	if err != nil {
		return Config{}, err
	}
	c := Default(s)
	if o.Layers != 0 {
		c.Layers = o.Layers
	}
	if o.Pillars != 0 {
		c.NumPillars = o.Pillars
	}
	if o.L2MB != 0 {
		if c, err = c.WithL2Size(o.L2MB); err != nil {
			return Config{}, err
		}
	}
	c.StackCPUs = o.StackCPUs
	c.DTMPolicy = o.DTMPolicy
	c.TripTempC = o.TripTempC
	c.DutyCycle = o.DutyCycle
	return c, nil
}

// Config carries every simulation parameter. Zero values are invalid; start
// from Default and modify.
type Config struct {
	Scheme Scheme

	// Layers is the number of device layers. Forced to 1 by 2D schemes.
	Layers int
	// NumCPUs is the processor count (Table 4: 8, in-order, single issue).
	NumCPUs int
	// NumPillars is the number of dTDMA bus pillars (Table 4: 8).
	NumPillars int

	// L2 is the cache geometry (Table 4: 16 MB as 256 x 64 KB banks).
	L2 cache.Geometry

	// L1 parameters: 64 KB split I/D, 2-way, 64 B lines, write-through.
	L1Sets, L1Ways int

	// Latencies in cycles (Table 4).
	L1HitCycles  int // 3
	L2BankCycles int // 5 for 64 KB banks
	TagCycles    int // 4 per cluster tag array
	MemoryCycles int // 260

	// MigrationThreshold is the number of consecutive remote hits by one
	// CPU before a line takes a migration step.
	MigrationThreshold int
	// SkipCPUClusters makes intra-layer migration hop over clusters that
	// contain other processors (Section 4.2.3). Disable only for ablation.
	SkipCPUClusters bool
	// OffsetK is Algorithm 1's offset distance from a shared pillar.
	OffsetK int
	// StackCPUs forces vertical CPU stacking (congestion/thermal baseline).
	StackCPUs bool
	// VerticalNoC replaces the dTDMA bus pillars with 7-port 3D routers —
	// the design alternative the paper considered and eliminated (Section
	// 3.1). Exists for the vertical-interconnect ablation.
	VerticalNoC bool
	// RouterPipeline is the per-router traversal latency in cycles. The
	// paper uses single-stage routers (1, Table 4); 4 models the basic
	// four-stage pipeline of Section 3.2 for the router-depth ablation.
	RouterPipeline int
	// BroadcastSearch replaces the two-step search with a single-step
	// multicast to every cluster (ablation of the search policy).
	BroadcastSearch bool
	// VictimReplication enables the replication-based management
	// alternative the paper discusses in Section 2.1 (Zhang & Asanovic's
	// victim replication): remote read hits leave a read-only replica in
	// the requester's local cluster; writes invalidate every replica.
	// Replicas may only displace invalid ways or other replicas.
	VictimReplication bool
	// TagPorts bounds concurrent lookups in each cluster's tag array
	// (0 = unlimited, the idealized default). With P ports, the P+1-th
	// simultaneous probe waits for a port — the contention a real
	// single- or dual-ported tag SRAM would show at hot home clusters.
	TagPorts int
	// MemControllers is the number of memory controllers at the chip edge
	// (layer 0). Off-chip requests travel the network to the nearest
	// controller; the 260-cycle Table 4 latency is the DRAM access itself.
	MemControllers int

	// DTMPolicy selects the runtime dynamic-thermal-management actuators
	// (internal/dtm): "", "none" or "off" (see DTMOff) disables DTM
	// entirely (the default — zero-valued configs are unmanaged), "all"
	// enables everything, and a comma list picks a subset of veto,
	// drowsy, duty, reroute. The string is parsed by dtm.ParsePolicy; an
	// unknown name fails core.CheckDTM, not Validate (config cannot
	// import dtm: dtm reads the thermal model, which reads this package).
	DTMPolicy string
	// TripTempC is the DTM trip temperature in C; 0 selects the
	// conventional 85 C junction throttling point.
	TripTempC float64
	// DutyCycle is the throttled issue pattern "N/M" (a hot core issues
	// on N of every M front-end slots); "" selects 1/4.
	DutyCycle string
}

// DTMActive reports whether the config names any DTM actuator, i.e.
// whether instrumenting the machine's thermal loop also attaches the
// dtm.Controller.
func (c Config) DTMActive() bool { return !DTMOff(c.DTMPolicy) }

// DTMOff reports whether a DTM policy string names no actuator: empty,
// or "none" or "off" in any case and with surrounding spaces.
// dtm.ParsePolicy uses it too, so the two never disagree.
func DTMOff(policy string) bool {
	switch strings.ToLower(strings.TrimSpace(policy)) {
	case "", "none", "off":
		return true
	}
	return false
}

// Default returns the paper's Table 4 configuration for the given scheme.
func Default(s Scheme) Config {
	c := Config{
		Scheme:             s,
		Layers:             2,
		NumCPUs:            8,
		NumPillars:         8,
		L2:                 cache.DefaultGeometry(),
		L1Sets:             512, // 64 KB / (64 B x 2 ways)
		L1Ways:             2,
		L1HitCycles:        3,
		L2BankCycles:       5,
		TagCycles:          4,
		MemoryCycles:       260,
		MigrationThreshold: 2,
		SkipCPUClusters:    true,
		OffsetK:            1,
		RouterPipeline:     1,
		MemControllers:     4,
	}
	if !s.Is3D() {
		c.Layers = 1
	}
	return c
}

// WithL2Size scales the L2 to the given total size in megabytes by growing
// each cluster (more banks per cluster, 16-way associativity maintained),
// the scaling used for Figure 16. Valid sizes are 16, 32 and 64.
func (c Config) WithL2Size(megabytes int) (Config, error) {
	switch megabytes {
	case 16:
		c.L2.BanksPerCluster = 16
	case 32:
		c.L2.BanksPerCluster = 32
	case 64:
		c.L2.BanksPerCluster = 64
	default:
		return c, fmt.Errorf("config: unsupported L2 size %d MB (want 16, 32 or 64)", megabytes)
	}
	return c, nil
}

// Validate checks internal consistency.
func (c Config) Validate() error {
	if err := c.L2.Validate(); err != nil {
		return err
	}
	// Probe masks are 64 bits wide, and the line directory stores each
	// line's cluster+1 in one byte; both rely on this limit.
	if c.L2.Clusters > 64 {
		return fmt.Errorf("config: %d Clusters exceed the 64-cluster search limit", c.L2.Clusters)
	}
	if c.Layers < 1 {
		return fmt.Errorf("config: Layers = %d", c.Layers)
	}
	if !c.Scheme.Is3D() && c.Layers != 1 {
		return fmt.Errorf("config: 2D scheme %v with %d layers", c.Scheme, c.Layers)
	}
	if c.NumCPUs < 1 || c.NumCPUs > 16 {
		return fmt.Errorf("config: NumCPUs = %d (supported range 1..16)", c.NumCPUs)
	}
	if c.NumPillars < 1 {
		return fmt.Errorf("config: NumPillars = %d", c.NumPillars)
	}
	if c.L2.Clusters%c.Layers != 0 {
		return fmt.Errorf("config: %d clusters not divisible by %d layers", c.L2.Clusters, c.Layers)
	}
	if c.L1Sets < 1 {
		return fmt.Errorf("config: L1Sets = %d must be >= 1", c.L1Sets)
	}
	if w := c.L1Ways; w < 1 || w > cache.MaxWays || w&(w-1) != 0 {
		return fmt.Errorf("config: L1Ways = %d must be a power of two from 1 to %d", w, cache.MaxWays)
	}
	for name, v := range map[string]int{
		"L1HitCycles": c.L1HitCycles, "L2BankCycles": c.L2BankCycles,
		"TagCycles": c.TagCycles, "MemoryCycles": c.MemoryCycles,
		"MigrationThreshold": c.MigrationThreshold, "OffsetK": c.OffsetK,
		"RouterPipeline": c.RouterPipeline, "MemControllers": c.MemControllers,
	} {
		if v < 1 {
			return fmt.Errorf("config: %s = %d must be >= 1", name, v)
		}
	}
	if t := c.TripTempC; t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
		return fmt.Errorf("config: TripTempC = %g must be finite and >= 0 (0 selects the 85 C default)", c.TripTempC)
	}
	return nil
}

// factorNearSquare factors n into (w, h) with w*h = n, choosing the pair
// whose scaled sides (w*unitW vs h*unitH) are closest; ties prefer wider.
func factorNearSquare(n, unitW, unitH int) (w, h int) {
	bestW, bestScore := 1, 1<<30
	for cand := 1; cand <= n; cand++ {
		if n%cand != 0 {
			continue
		}
		cw, ch := cand*unitW, (n/cand)*unitH
		score := cw - ch
		if score < 0 {
			score = -score
		}
		if score < bestScore || (score == bestScore && cand > bestW) {
			bestW, bestScore = cand, score
		}
	}
	return bestW, n / bestW
}
