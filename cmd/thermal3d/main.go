// Command thermal3d runs the 3D thermal model: either the paper's Table 3
// configurations or a custom chip, and optionally renders the per-layer
// temperature map as ASCII heat shades.
//
// Usage:
//
//	thermal3d                       # Table 3 reproduction
//	thermal3d -map                  # Table 3 with per-layer heat maps
//	thermal3d -layers 2 -stack      # custom configuration
//	thermal3d -layers 4 -map        # custom run with heat maps
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"repro/internal/config"
	"repro/internal/geom"
	"repro/internal/thermal"
)

func main() {
	var (
		layers  = flag.Int("layers", 0, "custom run: number of layers (0 = print Table 3)")
		pillars = flag.Int("pillars", 0, "custom run: number of pillars (0 = the scheme's default)")
		k       = flag.Int("k", 1, "custom run: Algorithm 1 offset distance")
		stack   = flag.Bool("stack", false, "custom run: stack CPUs vertically")
		showMap = flag.Bool("map", false, "print per-layer heat maps")
	)
	flag.Parse()

	if *layers == 0 {
		// Table 3 fixes every machine, so the custom-run flags would be
		// dropped.
		flag.Visit(func(f *flag.Flag) {
			if slices.Contains([]string{"pillars", "k", "stack"}, f.Name) {
				fatal(fmt.Errorf("-%s needs -layers (a custom run); Table 3 fixes its machines", f.Name))
			}
		})
		printTable3(*showMap)
		return
	}

	scheme := "dnuca3d"
	if *layers == 1 {
		scheme = "dnuca2d"
	}
	cfg, err := config.Overrides{Layers: *layers, Pillars: *pillars, StackCPUs: *stack}.Build(scheme)
	if err != nil {
		fatal(err)
	}
	cfg.OffsetK = *k
	top, err := config.NewTopology(cfg)
	if err != nil {
		fatal(err)
	}
	grid, iters, converged := thermal.SimulateGrid(top.Dim, top.CPUs, thermal.DefaultParams())
	warnIfDiverged("custom configuration", iters, converged)
	p := grid.Profile()
	fmt.Printf("chip %dx%dx%d, %d CPUs, %.1f W total (%d solver iterations)\n",
		top.Dim.Width, top.Dim.Height, top.Dim.Layers, len(top.CPUs), grid.TotalPower(), iters)
	fmt.Printf("peak %.2f C   avg %.2f C   min %.2f C\n", p.PeakC, p.AvgC, p.MinC)

	if *showMap {
		writeHeatMap(grid, top.CPUs)
	}
}

// printTable3 prints thermal.Table3 beside the paper's values and, with
// showMap, each row's heat map.
func printTable3(showMap bool) {
	rows, err := thermal.Table3(thermal.DefaultParams())
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-24s %18s %18s %18s %8s\n", "Configuration", "Peak C (paper)", "Avg C (paper)", "Min C (paper)", "Iters")
	for _, r := range rows {
		warnIfDiverged(r.Name, r.Iters, r.Converged)
		p := r.Profile
		fmt.Printf("%-24s %8.2f (%7.2f) %8.2f (%7.2f) %8.2f (%7.2f) %8d\n",
			r.Name, p.PeakC, r.PaperPeakC, p.AvgC, r.PaperAvgC, p.MinC, r.PaperMinC, r.Iters)
	}
	if showMap {
		_, cfgs := thermal.Table3Configs()
		for i, r := range rows {
			// The row's topology, for where the CPUs sit on the map.
			top, err := config.NewTopology(cfgs[i])
			if err != nil {
				fatal(err)
			}
			fmt.Printf("\n== %s ==\n", r.Name)
			writeHeatMap(r.Grid, top.CPUs)
		}
	}
}

func writeHeatMap(g *thermal.Grid, cpus []geom.Coord) {
	if err := thermal.WriteHeatMap(os.Stdout, g, cpus); err != nil {
		fatal(err)
	}
}

// warnIfDiverged reports a solver that hit its iteration cap before
// reaching tolerance; the printed temperatures are then approximate.
func warnIfDiverged(name string, iters int, converged bool) {
	if !converged {
		fmt.Fprintf(os.Stderr, "thermal3d: warning: %s: solver stopped after %d iterations without converging\n", name, iters)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "thermal3d:", err)
	os.Exit(1)
}
