package config

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
)

func TestSchemeProperties(t *testing.T) {
	cases := []struct {
		s                       Scheme
		name                    string
		migrates, is3D, perfect bool
	}{
		{CMPDNUCA, "CMP-DNUCA", true, false, true},
		{CMPDNUCA2D, "CMP-DNUCA-2D", true, false, false},
		{CMPSNUCA3D, "CMP-SNUCA-3D", false, true, false},
		{CMPDNUCA3D, "CMP-DNUCA-3D", true, true, false},
	}
	for _, c := range cases {
		if c.s.String() != c.name {
			t.Errorf("String = %q, want %q", c.s.String(), c.name)
		}
		if c.s.Migrates() != c.migrates || c.s.Is3D() != c.is3D || c.s.PerfectSearch() != c.perfect {
			t.Errorf("%v: migrates=%v is3D=%v perfect=%v", c.s, c.s.Migrates(), c.s.Is3D(), c.s.PerfectSearch())
		}
	}
}

func TestDefaultValid(t *testing.T) {
	for _, s := range []Scheme{CMPDNUCA, CMPDNUCA2D, CMPSNUCA3D, CMPDNUCA3D} {
		c := Default(s)
		if err := c.Validate(); err != nil {
			t.Errorf("%v: %v", s, err)
		}
		if s.Is3D() && c.Layers != 2 {
			t.Errorf("%v: layers = %d", s, c.Layers)
		}
		if !s.Is3D() && c.Layers != 1 {
			t.Errorf("%v: layers = %d", s, c.Layers)
		}
	}
}

func TestDefaultMatchesTable4(t *testing.T) {
	c := Default(CMPDNUCA3D)
	if c.NumCPUs != 8 || c.NumPillars != 8 {
		t.Errorf("CPUs=%d pillars=%d", c.NumCPUs, c.NumPillars)
	}
	if c.L1HitCycles != 3 || c.L2BankCycles != 5 || c.TagCycles != 4 || c.MemoryCycles != 260 {
		t.Errorf("latencies %d/%d/%d/%d", c.L1HitCycles, c.L2BankCycles, c.TagCycles, c.MemoryCycles)
	}
	if c.L2.TotalBytes() != 16<<20 {
		t.Errorf("L2 = %d bytes", c.L2.TotalBytes())
	}
	if c.L1Sets*c.L1Ways*64 != 64<<10 {
		t.Errorf("L1 = %d bytes", c.L1Sets*c.L1Ways*64)
	}
}

func TestValidateRejects(t *testing.T) {
	c := Default(CMPDNUCA3D)
	c.Layers = 3 // 16 clusters not divisible
	if c.Validate() == nil {
		t.Error("3 layers with 16 clusters must fail")
	}
	c = Default(CMPDNUCA2D)
	c.Layers = 2
	if c.Validate() == nil {
		t.Error("2D scheme with 2 layers must fail")
	}
	c = Default(CMPDNUCA3D)
	c.NumCPUs = 0
	if c.Validate() == nil {
		t.Error("0 CPUs must fail")
	}
	// The edge placement cannot stack CPUs, so the flag would be ignored.
	c = Default(CMPDNUCA)
	c.StackCPUs = true
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "StackCPUs") {
		t.Errorf("StackCPUs on CMP-DNUCA: Validate = %v, want an error naming StackCPUs", err)
	}
	c = Default(CMPDNUCA3D)
	c.MigrationThreshold = 0
	if c.Validate() == nil {
		t.Error("threshold 0 must fail")
	}
	// Set replacement needs power-of-two associativity, and a set records
	// its valid ways in one 64-bit mask.
	for _, ways := range []int{0, 3, 12, 128} {
		c = Default(CMPDNUCA3D)
		c.L1Ways = ways
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "L1Ways") {
			t.Errorf("L1Ways = %d: Validate = %v, want an error naming L1Ways", ways, err)
		}
	}
	c = Default(CMPDNUCA3D)
	c.L2.Ways = 128
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "Ways") {
		t.Errorf("L2 Ways = 128: Validate = %v, want an error naming Ways", err)
	}
	// Probe masks and the line directory's one-byte entries hold at most
	// 64 clusters.
	c = Default(CMPDNUCA3D)
	c.L2.Clusters = 128
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "Clusters") {
		t.Errorf("Clusters = 128: Validate = %v, want an error naming Clusters", err)
	}
	c = Default(CMPDNUCA3D)
	c.L1Ways = 64
	if err := c.Validate(); err != nil {
		t.Errorf("L1Ways = 64 must pass: %v", err)
	}
	// An L1 places a line with a mask and a shift, so its set count is a
	// power of two, and 64 K sets bounds the model.
	for _, sets := range []int{0, 3, 100, 513, 1 << 17, 1 << 40} {
		c = Default(CMPDNUCA3D)
		c.L1Sets = sets
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "L1Sets") {
			t.Errorf("L1Sets = %d: Validate = %v, want an error naming L1Sets", sets, err)
		}
	}
	for _, sets := range []int{1, 512, 1 << 16} {
		c = Default(CMPDNUCA3D)
		c.L1Sets = sets
		if err := c.Validate(); err != nil {
			t.Errorf("L1Sets = %d must pass: %v", sets, err)
		}
	}
	// A trip temperature that is not a finite number could never trip, and
	// the canonical JSON encoding cannot carry it.
	for _, trip := range []float64{-1, math.NaN(), math.Inf(1)} {
		c = Default(CMPDNUCA3D)
		c.DTMPolicy, c.TripTempC = "all", trip
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "TripTempC") {
			t.Errorf("TripTempC = %g: Validate = %v, want an error naming TripTempC", trip, err)
		}
	}
}

func TestTopologyDefault3D(t *testing.T) {
	top, err := NewTopology(Default(CMPDNUCA3D))
	if err != nil {
		t.Fatal(err)
	}
	if top.Dim != (geom.Dim{Width: 16, Height: 8, Layers: 2}) {
		t.Errorf("Dim = %+v, want 16x8x2", top.Dim)
	}
	if top.TileW != 4 || top.TileH != 4 {
		t.Errorf("tile %dx%d, want 4x4", top.TileW, top.TileH)
	}
	if top.ClusterW != 4 || top.ClusterH != 2 {
		t.Errorf("cluster grid %dx%d, want 4x2", top.ClusterW, top.ClusterH)
	}
	if len(top.Pillars) != 8 || len(top.CPUs) != 8 {
		t.Errorf("pillars=%d cpus=%d", len(top.Pillars), len(top.CPUs))
	}
	if top.NumClusters() != 16 || top.ClustersPerLayer() != 8 {
		t.Errorf("clusters=%d perLayer=%d", top.NumClusters(), top.ClustersPerLayer())
	}
}

func TestTopologyDefault2D(t *testing.T) {
	top, err := NewTopology(Default(CMPDNUCA2D))
	if err != nil {
		t.Fatal(err)
	}
	if top.Dim != (geom.Dim{Width: 16, Height: 16, Layers: 1}) {
		t.Errorf("Dim = %+v, want 16x16x1", top.Dim)
	}
	// Our 2D scheme surrounds CPUs with banks: no CPU on an edge.
	for i, c := range top.CPUs {
		if c.X == 0 || c.X == 15 || c.Y == 0 || c.Y == 15 {
			t.Errorf("CPU %d at %v is on the edge", i, c)
		}
	}
}

func TestTopologyBaselineEdges(t *testing.T) {
	top, err := NewTopology(Default(CMPDNUCA))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range top.CPUs {
		if c.Y != 0 && c.Y != top.Dim.Height-1 {
			t.Errorf("baseline CPU %d at %v not on an edge", i, c)
		}
	}
}

func TestTopologyFourLayers(t *testing.T) {
	c := Default(CMPSNUCA3D)
	c.Layers = 4
	top, err := NewTopology(c)
	if err != nil {
		t.Fatal(err)
	}
	if top.Dim != (geom.Dim{Width: 8, Height: 8, Layers: 4}) {
		t.Errorf("Dim = %+v, want 8x8x4", top.Dim)
	}
	if top.ClustersPerLayer() != 4 {
		t.Errorf("ClustersPerLayer = %d", top.ClustersPerLayer())
	}
}

func TestTopologySharedPillars(t *testing.T) {
	c := Default(CMPDNUCA3D)
	c.NumPillars = 2 // 8 CPUs over 2 pillars x 2 layers: c = 2 per slot
	top, err := NewTopology(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(top.CPUs) != 8 {
		t.Fatalf("CPUs = %d", len(top.CPUs))
	}
	// Every CPU must be within 2*k hops of some pillar.
	for i, cpu := range top.CPUs {
		p := top.PillarOf(cpu)
		if d := cpu.ManhattanXY(geom.Coord{X: p.X, Y: p.Y, Layer: cpu.Layer}); d > 2*c.OffsetK {
			t.Errorf("CPU %d at %v is %d hops from nearest pillar", i, cpu, d)
		}
	}
}

func TestTopologyStacked(t *testing.T) {
	c := Default(CMPDNUCA3D)
	c.StackCPUs = true
	top, err := NewTopology(c)
	if err != nil {
		t.Fatal(err)
	}
	stacked := map[[2]int]int{}
	for _, cpu := range top.CPUs {
		stacked[[2]int{cpu.X, cpu.Y}]++
	}
	found := false
	for _, n := range stacked {
		if n > 1 {
			found = true
		}
	}
	if !found {
		t.Error("StackCPUs placement has no vertical stacking")
	}
}

// TestTopologyPlacesEveryCPU sweeps the machine shapes Validate accepts:
// each must either be refused by NewTopology or be a real machine (see
// checkTopology). Stacking more CPUs than pillars × layers passes
// Validate, so NewTopology is what must refuse it: NewSystem indexes the
// placement by CPU.
func TestTopologyPlacesEveryCPU(t *testing.T) {
	for _, scheme := range []Scheme{CMPDNUCA, CMPDNUCA2D, CMPSNUCA3D, CMPDNUCA3D} {
		for ncpu := 1; ncpu <= 16; ncpu++ {
			for _, pillars := range []int{1, 2, 4, 8, 16} {
				for _, layers := range []int{1, 2, 4, 8} {
					for _, stack := range []bool{false, true} {
						c := Default(scheme)
						c.NumCPUs, c.NumPillars, c.Layers, c.StackCPUs = ncpu, pillars, layers, stack
						if c.Validate() != nil {
							continue
						}
						checkTopology(t, c)
					}
				}
			}
		}
	}
}

// checkTopology builds c's topology and reports whether NewTopology
// accepted it. An accepted machine is real: one distinct in-mesh node per
// CPU, and its pillars at distinct positions inside the layer.
func checkTopology(t *testing.T, c Config) (accepted bool) {
	t.Helper()
	name := fmt.Sprintf("%v cpus=%d pillars=%d layers=%d L2=%dMB stack=%v",
		c.Scheme, c.NumCPUs, c.NumPillars, c.Layers, c.L2.TotalBytes()>>20, c.StackCPUs)
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s: NewTopology panicked: %v", name, r)
		}
	}()
	top, err := NewTopology(c)
	if err != nil {
		return false
	}
	if len(top.CPUs) != c.NumCPUs {
		t.Errorf("%s: placed %d CPUs", name, len(top.CPUs))
	}
	seen := map[geom.Coord]bool{}
	for _, cpu := range top.CPUs {
		if !top.Dim.Contains(cpu) || seen[cpu] {
			t.Errorf("%s: CPU at %v is outside the mesh or shares a node", name, cpu)
		}
		seen[cpu] = true
	}
	clear(seen)
	for _, p := range top.Pillars {
		if !top.Dim.Contains(p) || p.Layer != 0 || seen[p] {
			t.Errorf("%s: pillar at %v is outside the layer or shares a position", name, p)
			break
		}
		seen[p] = true
	}
	return true
}

// TestTopologyRejectsUnfitPillars: a pillar count with no pw x ph grid on
// the layer is refused by name, instead of stacking pillars in one column.
// The refusal costs no more for 2^40 pillars than for 17: the grid search
// is bounded by the layer, not by the count, so a deadline turns a
// regression into a failure rather than a hang.
func TestTopologyRejectsUnfitPillars(t *testing.T) {
	for _, tc := range []struct {
		layers, pillars int
	}{
		{2, 17},      // prime, taller than the 16x8 layer
		{4, 11},      // prime, wider and taller than the 8x8 layer
		{2, 1 << 40}, // a power of two, far past the 16x8 layer's 128 nodes
	} {
		c := Default(CMPDNUCA3D)
		c.Layers, c.NumPillars = tc.layers, tc.pillars
		done := make(chan error, 1)
		go func() {
			_, err := NewTopology(c)
			done <- err
		}()
		select {
		case err := <-done:
			want := fmt.Sprintf("cannot fit %d pillars", tc.pillars)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%d pillars on %d layers: NewTopology = %v, want an error naming %q",
					tc.pillars, tc.layers, err, want)
			}
		case <-time.After(time.Second):
			t.Fatalf("%d pillars on %d layers: NewTopology did not return within 1s", tc.pillars, tc.layers)
		}
	}
}

// TestOverridesBuildRealMachines sweeps every machine the overrides can
// name over the paper's axes (scheme, layers, L2 size, stacking) and 1 to
// 300 pillars: each must be refused or real (see checkTopology).
func TestOverridesBuildRealMachines(t *testing.T) {
	accepted := 0
	for _, scheme := range []string{"dnuca", "dnuca2d", "snuca3d", "dnuca3d"} {
		for _, layers := range []int{0, 1, 2, 4, 8, 16} {
			for _, l2 := range []int{0, 32, 64} {
				for _, stack := range []bool{false, true} {
					for pillars := 1; pillars <= 300; pillars++ {
						o := Overrides{Layers: layers, Pillars: pillars, L2MB: l2, StackCPUs: stack}
						c, err := o.Build(scheme)
						if err != nil {
							t.Fatalf("%s %+v: %v", scheme, o, err)
						}
						if checkTopology(t, c) {
							accepted++
						}
					}
				}
			}
		}
	}
	if accepted == 0 {
		t.Fatal("no machine was accepted")
	}
}

func TestClusterMapping(t *testing.T) {
	top, err := NewTopology(Default(CMPDNUCA3D))
	if err != nil {
		t.Fatal(err)
	}
	// Every node maps to a cluster whose tile contains it.
	counts := make([]int, top.NumClusters())
	for i := 0; i < top.Dim.Nodes(); i++ {
		n := top.Dim.CoordOf(i)
		id := top.ClusterOf(n)
		if id < 0 || id >= top.NumClusters() {
			t.Fatalf("node %v -> cluster %d", n, id)
		}
		counts[id]++
		if top.ClusterLayer(id) != n.Layer {
			t.Fatalf("node %v mapped to cluster on layer %d", n, top.ClusterLayer(id))
		}
	}
	for id, n := range counts {
		if n != top.TileW*top.TileH {
			t.Errorf("cluster %d holds %d nodes, want %d", id, n, top.TileW*top.TileH)
		}
	}
}

func TestClusterCenterAndBanks(t *testing.T) {
	top, err := NewTopology(Default(CMPDNUCA3D))
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < top.NumClusters(); id++ {
		center := top.ClusterCenter(id)
		if top.ClusterOf(center) != id {
			t.Errorf("center of cluster %d maps to cluster %d", id, top.ClusterOf(center))
		}
		seen := map[geom.Coord]bool{}
		for b := 0; b < top.Cfg.L2.BanksPerCluster; b++ {
			bc := top.BankCoord(id, b)
			if top.ClusterOf(bc) != id {
				t.Errorf("bank %d of cluster %d at %v is outside its tile", b, id, bc)
			}
			if seen[bc] {
				t.Errorf("bank %d of cluster %d duplicates node %v", b, id, bc)
			}
			seen[bc] = true
		}
	}
}

func TestInLayerNeighbors(t *testing.T) {
	top, err := NewTopology(Default(CMPDNUCA3D))
	if err != nil {
		t.Fatal(err)
	}
	// 4x2 cluster grid: corner cluster has 2 neighbors, middle has 3.
	corner := 0
	if n := top.InLayerNeighbors(corner); len(n) != 2 {
		t.Errorf("corner neighbors = %v", n)
	}
	// Cluster 1 (top row, second column) has left, right, below = 3.
	if n := top.InLayerNeighbors(1); len(n) != 3 {
		t.Errorf("cluster 1 neighbors = %v", n)
	}
	// Neighbors stay within the same layer.
	for id := 0; id < top.NumClusters(); id++ {
		for _, nb := range top.InLayerNeighbors(id) {
			if top.ClusterLayer(nb) != top.ClusterLayer(id) {
				t.Errorf("cluster %d neighbor %d crosses layers", id, nb)
			}
		}
	}
}

func TestVerticalNeighbors(t *testing.T) {
	top, err := NewTopology(Default(CMPDNUCA3D))
	if err != nil {
		t.Fatal(err)
	}
	cpu := top.CPUs[0]
	vn := top.VerticalNeighbors(cpu)
	if len(vn) != 1 { // 2 layers: one other layer
		t.Fatalf("vertical neighbors = %v", vn)
	}
	if top.ClusterLayer(vn[0]) == cpu.Layer {
		t.Error("vertical neighbor on same layer")
	}

	// 2D: no vertical neighbors.
	top2d, _ := NewTopology(Default(CMPDNUCA2D))
	if vn := top2d.VerticalNeighbors(top2d.CPUs[0]); vn != nil {
		t.Errorf("2D vertical neighbors = %v", vn)
	}
}

func TestWithL2Size(t *testing.T) {
	base := Default(CMPDNUCA3D)
	for _, mb := range []int{16, 32, 64} {
		c, err := base.WithL2Size(mb)
		if err != nil {
			t.Fatal(err)
		}
		if c.L2.TotalBytes() != mb<<20 {
			t.Errorf("%dMB: got %d bytes", mb, c.L2.TotalBytes())
		}
		if _, err := NewTopology(c); err != nil {
			t.Errorf("%dMB topology: %v", mb, err)
		}
	}
	if _, err := base.WithL2Size(48); err == nil {
		t.Error("48MB must be rejected")
	}
}

func TestLargerCachesGrowMeshSlowerIn3D(t *testing.T) {
	// The structural basis of Figure 16: network diameter grows slower with
	// capacity in 3D than in 2D.
	diam := func(s Scheme, mb int) int {
		c, err := Default(s).WithL2Size(mb)
		if err != nil {
			t.Fatal(err)
		}
		top, err := NewTopology(c)
		if err != nil {
			t.Fatal(err)
		}
		return top.Dim.Width + top.Dim.Height - 2
	}
	grow2D := diam(CMPDNUCA2D, 64) - diam(CMPDNUCA2D, 16)
	grow3D := diam(CMPDNUCA3D, 64) - diam(CMPDNUCA3D, 16)
	if grow3D >= grow2D {
		t.Errorf("3D diameter growth %d not below 2D growth %d", grow3D, grow2D)
	}
}

func TestClustersWithCPUs(t *testing.T) {
	top, err := NewTopology(Default(CMPDNUCA3D))
	if err != nil {
		t.Fatal(err)
	}
	owners := top.ClustersWithCPUs()
	if len(owners) != top.NumClusters() {
		t.Fatalf("len = %d", len(owners))
	}
	cpuClusters := 0
	for _, o := range owners {
		if o >= 0 {
			cpuClusters++
		}
	}
	if cpuClusters != 8 {
		t.Errorf("%d clusters host CPUs, want 8 (one per cluster)", cpuClusters)
	}
	for i := range top.CPUs {
		if owners[top.CPUCluster(i)] < 0 {
			t.Errorf("CPU %d's cluster not marked", i)
		}
	}
}

func TestPillarOfDeterministic(t *testing.T) {
	top, err := NewTopology(Default(CMPDNUCA3D))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < top.Dim.Nodes(); i++ {
		n := top.Dim.CoordOf(i)
		p := top.PillarOf(n)
		// Must actually be a pillar and at minimal distance.
		minD := 1 << 30
		for _, q := range top.Pillars {
			if d := n.ManhattanXY(geom.Coord{X: q.X, Y: q.Y, Layer: n.Layer}); d < minD {
				minD = d
			}
		}
		if d := n.ManhattanXY(geom.Coord{X: p.X, Y: p.Y, Layer: n.Layer}); d != minD {
			t.Fatalf("PillarOf(%v) = %v at distance %d, min is %d", n, p, d, minD)
		}
	}
}
