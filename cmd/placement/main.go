// Command placement visualizes CPU placement for any configuration: the
// pillar grid, the CPUs per layer (Algorithm 1, optimal offsetting, edge
// placement, or stacking), and the placement's quality metrics.
//
// Usage:
//
//	placement                      # default: 2 layers, 8 pillars, optimal
//	placement -layers 4            # four layers
//	placement -pillars 2 -k 1      # shared pillars via Algorithm 1
//	placement -stack               # the thermally-bad stacked baseline
//	placement -edge                # the CMP-DNUCA edge baseline
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/config"
	"repro/internal/geom"
	"repro/internal/placement"
)

func main() {
	var (
		layers  = flag.Int("layers", 0, "number of layers (0 = the scheme's default)")
		pillars = flag.Int("pillars", 0, "number of pillars (0 = the scheme's default)")
		cpus    = flag.Int("cpus", 8, "number of CPUs")
		k       = flag.Int("k", 1, "Algorithm 1 offset distance")
		stack   = flag.Bool("stack", false, "stack CPUs vertically")
		edge    = flag.Bool("edge", false, "edge placement (CMP-DNUCA baseline)")
	)
	flag.Parse()

	scheme := "dnuca3d"
	if *edge {
		scheme = "dnuca"
	} else if *layers == 1 {
		scheme = "dnuca2d"
	}
	cfg, err := config.Overrides{Layers: *layers, Pillars: *pillars, StackCPUs: *stack}.Build(scheme)
	if err != nil {
		fatal(err)
	}
	cfg.NumCPUs = *cpus
	cfg.OffsetK = *k

	top, err := config.NewTopology(cfg)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("%v: %dx%d mesh x %d layers, %d clusters (%dx%d tiles), %d pillars, %d CPUs\n",
		cfg.Scheme, top.Dim.Width, top.Dim.Height, top.Dim.Layers,
		top.NumClusters(), top.TileW, top.TileH, len(top.Pillars), len(top.CPUs))

	pillarAt := map[[2]int]bool{}
	for _, p := range top.Pillars {
		pillarAt[[2]int{p.X, p.Y}] = true
	}
	cpuAt := map[geom.Coord]int{}
	for i, c := range top.CPUs {
		cpuAt[c] = i
	}

	// Validate allows at most 16 CPUs, so every id is one hex digit.
	err = geom.WriteLayerMaps(os.Stdout, top.Dim, "\nlayer %d (P pillar, 0-9a-f CPU, + both, . bank):\n", func(c geom.Coord) byte {
		id, hasCPU := cpuAt[c]
		hasPillar := pillarAt[[2]int{c.X, c.Y}]
		switch {
		case hasCPU && hasPillar:
			return '+'
		case hasCPU:
			return "0123456789abcdef"[id]
		case hasPillar:
			return 'P'
		}
		return '.'
	})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("\nquality:\n")
	fmt.Printf("  max CPUs stacked per column: %d\n", placement.MaxStackedPerColumn(top.CPUs))
	maxHops, sumHops := 0, 0
	for _, c := range top.CPUs {
		p := top.PillarOf(c)
		d := c.ManhattanXY(geom.Coord{X: p.X, Y: p.Y, Layer: c.Layer})
		sumHops += d
		if d > maxHops {
			maxHops = d
		}
	}
	fmt.Printf("  CPU-to-pillar hops: avg %.1f, max %d\n",
		float64(sumHops)/float64(len(top.CPUs)), maxHops)
	if err := placement.Validate(top.CPUs, top.Dim); err != nil {
		fatal(err)
	}
	fmt.Println("  placement valid: yes")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "placement:", err)
	os.Exit(1)
}
