package config

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/placement"
)

// Topology is the concrete physical layout derived from a Config: the mesh
// dimensions, the cluster tiling of each layer, pillar positions, and CPU
// placement. It provides the coordinate arithmetic the L2 controller and
// policies need (cluster of a node, controller node of a cluster, bank
// positions, neighbor clusters).
type Topology struct {
	Cfg Config
	Dim geom.Dim

	// TileW x TileH is the bank tile of one cluster; ClusterW x ClusterH is
	// the cluster grid of one layer.
	TileW, TileH       int
	ClusterW, ClusterH int

	// Pillars holds the in-plane pillar positions; PillarGridW is the
	// pillar grid width (for 3D offset placement).
	Pillars     []geom.Coord
	PillarGridW int

	// CPUs[i] is the mesh node of CPU i.
	CPUs []geom.Coord
}

// NewTopology derives the topology for a configuration.
func NewTopology(c Config) (*Topology, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	t := &Topology{Cfg: c}
	t.TileW, t.TileH = factorNearSquare(c.L2.BanksPerCluster, 1, 1)
	clustersPerLayer := c.L2.Clusters / c.Layers
	t.ClusterW, t.ClusterH = factorNearSquare(clustersPerLayer, t.TileW, t.TileH)
	t.Dim = geom.Dim{
		Width:  t.ClusterW * t.TileW,
		Height: t.ClusterH * t.TileH,
		Layers: c.Layers,
	}
	t.Pillars, t.PillarGridW = placement.PillarGrid(t.Dim, c.NumPillars)
	if len(t.Pillars) != c.NumPillars {
		return nil, fmt.Errorf("config: cannot fit %d pillars on a %dx%d layer",
			c.NumPillars, t.Dim.Width, t.Dim.Height)
	}
	cpus, err := t.placeCPUs()
	if err != nil {
		return nil, err
	}
	if len(cpus) < c.NumCPUs {
		return nil, fmt.Errorf("config: CPU placement has %d slots for %d CPUs", len(cpus), c.NumCPUs)
	}
	t.CPUs = cpus[:c.NumCPUs]
	if err := placement.Validate(t.CPUs, t.Dim); err != nil {
		return nil, err
	}
	return t, nil
}

// placeCPUs chooses the CPU placement strategy for the configured scheme:
// edge placement for the CMP-DNUCA baseline; optimal 3D offsetting when
// every CPU has its own pillar; Algorithm 1 when pillars are shared; or
// vertical stacking when explicitly requested as a baseline. A strategy
// may return more or fewer slots than CPUs; NewTopology checks the count.
func (t *Topology) placeCPUs() ([]geom.Coord, error) {
	c := t.Cfg
	if c.Scheme == CMPDNUCA {
		return placement.Edge(t.Dim, c.NumCPUs), nil
	}
	if c.StackCPUs {
		return placement.Stacked(t.Pillars, c.Layers, c.NumCPUs), nil
	}
	if c.NumPillars >= c.NumCPUs {
		return placement.Optimal(t.Pillars, t.PillarGridW, c.Layers), nil
	}
	// Pillars are shared: CPUs per pillar per layer, rounded up.
	slots := c.NumPillars * c.Layers
	cpp := (c.NumCPUs + slots - 1) / slots
	if cpp == 3 {
		cpp = 4
	}
	return placement.Algorithm1(t.Pillars, t.Dim, c.Layers, cpp, c.OffsetK)
}

// NumClusters returns the total cluster count.
func (t *Topology) NumClusters() int { return t.Cfg.L2.Clusters }

// ClustersPerLayer returns the cluster count of one layer.
func (t *Topology) ClustersPerLayer() int { return t.ClusterW * t.ClusterH }

// ClusterOf returns the cluster id containing a mesh node. Ids are
// layer-major, row-major within the layer.
func (t *Topology) ClusterOf(c geom.Coord) int {
	cx := c.X / t.TileW
	cy := c.Y / t.TileH
	return c.Layer*t.ClustersPerLayer() + cy*t.ClusterW + cx
}

// ClusterLayer returns the device layer a cluster occupies.
func (t *Topology) ClusterLayer(id int) int { return id / t.ClustersPerLayer() }

// ClusterOrigin returns the north-west corner node of a cluster's tile.
func (t *Topology) ClusterOrigin(id int) geom.Coord {
	within := id % t.ClustersPerLayer()
	cx := within % t.ClusterW
	cy := within / t.ClusterW
	return geom.Coord{X: cx * t.TileW, Y: cy * t.TileH, Layer: t.ClusterLayer(id)}
}

// ClusterCenter returns the node hosting the cluster's tag array and
// controller logic (the paper's per-cluster tag array with its attached
// logic block): the central node of the tile.
func (t *Topology) ClusterCenter(id int) geom.Coord {
	o := t.ClusterOrigin(id)
	return geom.Coord{X: o.X + t.TileW/2, Y: o.Y + t.TileH/2, Layer: o.Layer}
}

// BankCoord returns the mesh node of bank b within cluster id (banks are
// tiled row-major across the cluster's tile).
func (t *Topology) BankCoord(id, b int) geom.Coord {
	o := t.ClusterOrigin(id)
	return geom.Coord{X: o.X + b%t.TileW, Y: o.Y + b/t.TileW, Layer: o.Layer}
}

// InLayerNeighbors returns the cluster ids adjacent (N/S/E/W) to cluster id
// within its layer — the clusters probed in search step one alongside the
// local cluster.
func (t *Topology) InLayerNeighbors(id int) []int {
	within := id % t.ClustersPerLayer()
	base := id - within
	cx := within % t.ClusterW
	cy := within / t.ClusterW
	var out []int
	if cx > 0 {
		out = append(out, base+cy*t.ClusterW+cx-1)
	}
	if cx < t.ClusterW-1 {
		out = append(out, base+cy*t.ClusterW+cx+1)
	}
	if cy > 0 {
		out = append(out, base+(cy-1)*t.ClusterW+cx)
	}
	if cy < t.ClusterH-1 {
		out = append(out, base+(cy+1)*t.ClusterW+cx)
	}
	return out
}

// PillarOf returns the pillar position nearest to a node (each CPU's
// dedicated or shared pillar). Ties break toward the lowest pillar index.
func (t *Topology) PillarOf(c geom.Coord) geom.Coord {
	best := t.Pillars[0]
	bestD := c.ManhattanXY(geom.Coord{X: best.X, Y: best.Y, Layer: c.Layer})
	for _, p := range t.Pillars[1:] {
		if d := c.ManhattanXY(geom.Coord{X: p.X, Y: p.Y, Layer: c.Layer}); d < bestD {
			best, bestD = p, d
		}
	}
	return best
}

// VerticalNeighbors returns, for every other layer, the cluster containing
// the given node's pillar position on that layer: the clusters whose tag
// arrays receive the pillar broadcast in search step one.
func (t *Topology) VerticalNeighbors(c geom.Coord) []int {
	if t.Dim.Layers == 1 {
		return nil
	}
	p := t.PillarOf(c)
	var out []int
	for l := 0; l < t.Dim.Layers; l++ {
		if l == c.Layer {
			continue
		}
		out = append(out, t.ClusterOf(geom.Coord{X: p.X, Y: p.Y, Layer: l}))
	}
	return out
}

// CPUCluster returns the cluster containing CPU i.
func (t *Topology) CPUCluster(i int) int { return t.ClusterOf(t.CPUs[i]) }

// ClustersWithCPUs returns, per cluster id, which CPU (if any) it hosts;
// -1 for clusters without a processor. When several CPUs share a cluster
// the lowest-numbered one is recorded, and HasCPU remains true.
func (t *Topology) ClustersWithCPUs() []int {
	out := make([]int, t.NumClusters())
	for i := range out {
		out[i] = -1
	}
	for i, c := range t.CPUs {
		id := t.ClusterOf(c)
		if out[id] == -1 {
			out[id] = i
		}
	}
	return out
}
