// Floorplanner is the designer workflow of Section 3.3: given a thermal
// budget for peak die temperature, explore CPU placements (optimal
// offsetting, Algorithm 1 with various k, stacking) across layer counts and
// report which configurations fit the budget and what L2 latency each
// achieves. It combines the thermal model (Table 3) with the performance
// simulator (Figures 13/17/18).
//
//	go run ./examples/floorplanner [-budget 140] [-bench mgrid]
package main

import (
	"flag"
	"fmt"
	"log"

	nim "repro"
	"repro/internal/config"
	"repro/internal/thermal"
)

func main() {
	budget := flag.Float64("budget", 140, "peak temperature budget in C")
	bench := flag.String("bench", "mgrid", "benchmark for the performance column")
	flag.Parse()

	type candidate struct {
		name string
		cfg  nim.Config
	}
	mk := func(layers, pillars, k int, stack bool) nim.Config {
		c := nim.DefaultConfig(nim.CMPDNUCA3D)
		c.Layers = layers
		c.NumPillars = pillars
		c.OffsetK = k
		c.StackCPUs = stack
		return c
	}
	candidates := []candidate{
		{"2D, maximal offset", nim.DefaultConfig(nim.CMPDNUCA2D)},
		{"2 layers, optimal offset", mk(2, 8, 1, false)},
		{"2 layers, shared pillars k=2", mk(2, 4, 2, false)},
		{"2 layers, shared pillars k=1", mk(2, 4, 1, false)},
		{"2 layers, stacked CPUs", mk(2, 8, 1, true)},
		{"4 layers, optimal offset", mk(4, 8, 1, false)},
		{"4 layers, stacked CPUs", mk(4, 8, 1, true)},
	}

	prm := thermal.DefaultParams()
	opt := nim.DefaultOptions()
	opt.MeasureCycles = 150_000

	fmt.Printf("peak temperature budget: %.0f C; benchmark: %s\n\n", *budget, *bench)
	fmt.Printf("%-30s %10s %8s %14s %8s\n", "configuration", "peak C", "fits", "L2 hit lat", "IPC")

	// Every candidate's performance run, in one sweep.
	jobs := make([]nim.SweepJob, len(candidates))
	for i, cand := range candidates {
		jobs[i] = nim.NewSweepJob(cand.cfg, *bench, opt)
	}
	rs := nim.RunSweep(jobs, 0, nil)
	if err := nim.SweepError(rs); err != nil {
		log.Fatal(err)
	}

	var bestName string
	var bestLat float64
	for i, cand := range candidates {
		top, err := config.NewTopology(cand.cfg)
		if err != nil {
			log.Fatal(err)
		}
		prof := thermal.Simulate(top.Dim, top.CPUs, prm)
		fits := prof.PeakC <= *budget
		mark := "no"
		if fits {
			mark = "yes"
		}
		r := rs[i].Results
		fmt.Printf("%-30s %10.1f %8s %11.1f cy %8.3f\n",
			cand.name, prof.PeakC, mark, r.AvgL2HitLatency, r.IPC)
		if fits && (bestName == "" || r.AvgL2HitLatency < bestLat) {
			bestName, bestLat = cand.name, r.AvgL2HitLatency
		}
	}

	if bestName == "" {
		fmt.Printf("\nno configuration fits the %.0f C budget\n", *budget)
		return
	}
	fmt.Printf("\nbest within budget: %s (%.1f-cycle L2 hit latency)\n", bestName, bestLat)
}
