// Package placement implements the CPU placement strategies of Section 3.3:
// optimal offsetting in all three dimensions (one CPU per pillar, Figure 9),
// the paper's Algorithm 1 for pillar-sharing configurations (2 or 4 CPUs per
// pillar per layer, offset k), vertical stacking (the thermally-bad baseline
// of Table 3), and the edge placement used by the CMP-DNUCA comparison
// scheme, which puts processors on the chip perimeter.
package placement

import (
	"fmt"

	"repro/internal/geom"
)

// clamp keeps a coordinate inside the layer bounds so an offset near a chip
// edge stays on-chip.
func clamp(c geom.Coord, d geom.Dim) geom.Coord {
	if c.X < 0 {
		c.X = 0
	}
	if c.X >= d.Width {
		c.X = d.Width - 1
	}
	if c.Y < 0 {
		c.Y = 0
	}
	if c.Y >= d.Height {
		c.Y = d.Height - 1
	}
	return c
}

// Optimal places one CPU directly on each pillar, offsetting CPUs in all
// three dimensions (Figure 9): pillar (row, col) in its pw-wide grid gets
// layer (row+col) mod layers, so no two vertically adjacent pillar
// positions carry CPUs on the same layer. It returns one coordinate per
// pillar; callers wanting fewer CPUs take a prefix.
func Optimal(pillars []geom.Coord, pw, layers int) []geom.Coord {
	if pw < 1 {
		pw = 1
	}
	cpus := make([]geom.Coord, len(pillars))
	for i, p := range pillars {
		row, col := i/pw, i%pw
		cpus[i] = geom.Coord{X: p.X, Y: p.Y, Layer: (row + col) % layers}
	}
	return cpus
}

// Algorithm1 is the paper's CPU placement algorithm for configurations
// where multiple CPUs share a pillar. c is the number of CPUs assigned to
// each pillar on each layer (the paper defines patterns for c = 2 and
// c = 4; c = 1 is the natural single-CPU extension that rotates the offset
// direction per layer). k is the offset distance from the pillar in network
// hops. The pattern cycles every four layers, exactly as in the paper.
//
// The returned slice is ordered pillar-major, then layer, then the c CPUs
// of that (pillar, layer) slot; positions are clamped to the chip bounds.
func Algorithm1(pillars []geom.Coord, dim geom.Dim, layers, c, k int) ([]geom.Coord, error) {
	if c != 1 && c != 2 && c != 4 {
		return nil, fmt.Errorf("placement: Algorithm 1 supports c in {1,2,4}, got %d", c)
	}
	if k < 1 {
		return nil, fmt.Errorf("placement: offset k must be >= 1, got %d", k)
	}
	var cpus []geom.Coord
	add := func(x, y, l int) {
		cpus = append(cpus, clamp(geom.Coord{X: x, Y: y, Layer: l}, dim))
	}
	for _, p := range pillars {
		for l := 0; l < layers; l++ {
			x, y := p.X, p.Y
			switch l % 4 {
			case 0:
				switch c {
				case 1:
					add(x+k, y, l)
				case 2:
					add(x+k, y, l)
					add(x-k, y, l)
				case 4:
					add(x+2*k, y, l)
					add(x-2*k, y, l)
					add(x, y+2*k, l)
					add(x, y-2*k, l)
				}
			case 1:
				switch c {
				case 1:
					add(x, y+k, l)
				case 2:
					add(x, y+k, l)
					add(x, y-k, l)
				case 4:
					add(x+k, y+k, l)
					add(x+k, y-k, l)
					add(x-k, y+k, l)
					add(x-k, y-k, l)
				}
			case 2:
				switch c {
				case 1:
					add(x-k, y, l)
				case 2:
					add(x+2*k, y, l)
					add(x-2*k, y, l)
				case 4:
					add(x+k, y, l)
					add(x-k, y, l)
					add(x, y+k, l)
					add(x, y-k, l)
				}
			case 3:
				switch c {
				case 1:
					add(x, y-k, l)
				case 2:
					add(x, y+2*k, l)
					add(x, y-2*k, l)
				case 4:
					add(x+2*k, y+2*k, l)
					add(x+2*k, y-2*k, l)
					add(x-2*k, y+2*k, l)
					add(x-2*k, y-2*k, l)
				}
			}
		}
	}
	return cpus, nil
}

// Stacked places CPUs directly on pillars with vertical stacking: CPUs fill
// each pillar position through all layers before moving to the next pillar.
// This is the placement Table 3 shows to create severe hotspots; it exists
// as the thermal and congestion baseline.
func Stacked(pillars []geom.Coord, layers, ncpu int) []geom.Coord {
	cpus := make([]geom.Coord, 0, ncpu)
	for _, p := range pillars {
		for l := 0; l < layers && len(cpus) < ncpu; l++ {
			cpus = append(cpus, geom.Coord{X: p.X, Y: p.Y, Layer: l})
		}
		if len(cpus) == ncpu {
			break
		}
	}
	return cpus
}

// Edge places CPUs on the chip perimeter of a single-layer chip, evenly
// spaced along the north and south edges — the CMP-DNUCA baseline, which
// surrounds processors with cache on one side only.
func Edge(dim geom.Dim, ncpu int) []geom.Coord {
	cpus := make([]geom.Coord, 0, ncpu)
	top := (ncpu + 1) / 2
	bottom := ncpu - top
	for i := 0; i < top; i++ {
		x := (2*i + 1) * dim.Width / (2 * top)
		cpus = append(cpus, geom.Coord{X: x, Y: 0, Layer: 0})
	}
	for i := 0; i < bottom; i++ {
		x := (2*i + 1) * dim.Width / (2 * bottom)
		cpus = append(cpus, geom.Coord{X: x, Y: dim.Height - 1, Layer: 0})
	}
	return cpus
}

// PillarGrid distributes n pillar positions over a WxH layer as a pw x ph
// grid chosen so the per-pillar service cells are as square as possible.
// Pillars sit at cell centers, never on chip edges (for layers taller and
// wider than 2), matching Section 3.3's guidance: far apart, but not on
// the edges. The grid width pw is returned for layer-offset computations.
// When no pw x ph grid fits on the layer, there are no pillars: the search
// tries at most W widths, so a huge n costs no more than a small one.
func PillarGrid(dim geom.Dim, n int) (pillars []geom.Coord, pw int) {
	if n < 1 {
		return nil, 1
	}
	bestPW, bestScore := 0, 1<<30
	for w := 1; w <= min(n, dim.Width); w++ {
		if n%w != 0 {
			continue
		}
		h := n / w
		if h > dim.Height {
			continue
		}
		cw, ch := dim.Width/w, dim.Height/h
		score := cw - ch
		if score < 0 {
			score = -score
		}
		squarer := func(a int) int {
			d := a - n/a
			if d < 0 {
				return -d
			}
			return d
		}
		if score < bestScore || (score == bestScore && squarer(w) < squarer(bestPW)) {
			bestPW, bestScore = w, score
		}
	}
	if bestPW == 0 {
		return nil, 1
	}
	pw = bestPW
	ph := n / pw
	for j := 0; j < ph; j++ {
		for i := 0; i < pw; i++ {
			x := (2*i + 1) * dim.Width / (2 * pw)
			y := (2*j + 1) * dim.Height / (2 * ph)
			pillars = append(pillars, geom.Coord{X: x, Y: y})
		}
	}
	return pillars, pw
}

// Validate checks a CPU placement: every position on-chip and no two CPUs
// on the same node. It returns a descriptive error for the first violation.
func Validate(cpus []geom.Coord, dim geom.Dim) error {
	seen := make(map[geom.Coord]int, len(cpus))
	for i, c := range cpus {
		if !dim.Contains(c) {
			return fmt.Errorf("placement: CPU %d at %v is outside %v", i, c, dim)
		}
		if j, dup := seen[c]; dup {
			return fmt.Errorf("placement: CPUs %d and %d share node %v", j, i, c)
		}
		seen[c] = i
	}
	return nil
}

// MaxStackedPerColumn returns the largest number of CPUs sharing one
// in-plane position across layers — the quantity thermal offsetting
// minimizes (1 means no vertical stacking anywhere).
func MaxStackedPerColumn(cpus []geom.Coord) int {
	col := make(map[[2]int]int)
	max := 0
	for _, c := range cpus {
		col[[2]int{c.X, c.Y}]++
		if col[[2]int{c.X, c.Y}] > max {
			max = col[[2]int{c.X, c.Y}]
		}
	}
	return max
}
