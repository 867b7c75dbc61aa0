// Quickstart: simulate the paper's flagship configuration — an 8-core CMP
// with a 16 MB Network-in-Memory L2 on two device layers — running the
// mgrid benchmark, and print the headline metrics.
package main

import (
	"fmt"
	"log"

	nim "repro"
)

func main() {
	// The paper's Table 4 defaults for the full 3D scheme with migration.
	cfg := nim.DefaultConfig(nim.CMPDNUCA3D)

	// mgrid: the most L2-intensive SPEC OMP benchmark (Table 5).
	bench, ok := nim.BenchmarkByName("mgrid", cfg.NumCPUs)
	if !ok {
		log.Fatal("unknown benchmark")
	}

	sim, err := nim.NewSimulation(cfg, bench, 1)
	if err != nil {
		log.Fatal(err)
	}

	sim.Warm(1)      // install the post-warm-up cache steady state
	sim.Start()      // begin execution on all eight cores
	sim.Run(50_000)  // settle
	sim.ResetStats() // discard the settling window
	sim.Run(200_000) // measure

	r := sim.Results()
	fmt.Printf("%s on %s\n", r.Scheme, r.Benchmark)
	fmt.Printf("  IPC (per core):      %.3f\n", r.IPC)
	fmt.Printf("  avg L2 hit latency:  %.1f cycles\n", r.AvgL2HitLatency)
	fmt.Printf("  L2 accesses:         %d (%d hits, %d misses)\n",
		r.L2Accesses, r.L2Hits, r.L2Misses)
	fmt.Printf("  line migrations:     %d\n", r.Migrations)
	fmt.Printf("  network flit-hops:   %d\n", r.FlitHops)
}
