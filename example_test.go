package nim_test

import (
	"fmt"
	"strings"

	nim "repro"
)

// The canonical flow: configure a scheme, warm the caches, settle, measure.
func Example() {
	cfg := nim.DefaultConfig(nim.CMPSNUCA3D)
	bench, _ := nim.BenchmarkByName("swim", cfg.NumCPUs)
	sim, _ := nim.NewSimulation(cfg, bench, 1)

	sim.Warm()
	sim.Start()
	sim.Run(40_000)
	sim.ResetStats()
	sim.Run(100_000)

	r := sim.Results()
	fmt.Println(r.Scheme, "on", r.Benchmark)
	fmt.Println("hits recorded:", r.L2Hits > 0)
	// Output:
	// CMP-SNUCA-3D on swim
	// hits recorded: true
}

func ExampleSchemes() {
	for _, s := range nim.Schemes() {
		fmt.Println(s)
	}
	// Output:
	// CMP-DNUCA
	// CMP-DNUCA-2D
	// CMP-SNUCA-3D
	// CMP-DNUCA-3D
}

func ExampleBenchmarkByName() {
	p, ok := nim.BenchmarkByName("mgrid", 8)
	fmt.Println(ok, p.Name, p.FastForwardMCycles)
	// Output: true mgrid 3533
}

func ExampleParseTrace() {
	trace := `
# two reads and a store
R 1a2b
W 1a2c 4
R 1a2b
`
	fs, err := nim.ParseTrace(strings.NewReader(trace))
	if err != nil {
		panic(err)
	}
	fmt.Println("refs:", fs.Len())
	first := fs.Next()
	fmt.Printf("first: %#x write=%v\n", uint64(first.Addr), first.Write)
	// Output:
	// refs: 3
	// first: 0x1a2b write=false
}

// A custom sweep: heterogeneous jobs (here, two pillar counts) run on a
// bounded worker pool, with results returned in input order and per-job
// errors captured instead of aborting the batch. Every simulation is
// self-contained and deterministic in its seed, so the two workers return
// exactly what two sequential runs would — only the wall-clock time
// changes.
func ExampleRunSweep() {
	opt := nim.DefaultOptions()
	opt.WarmCycles, opt.MeasureCycles = 10_000, 30_000

	var jobs []nim.SweepJob
	for _, pillars := range []int{8, 2} {
		cfg := nim.DefaultConfig(nim.CMPDNUCA3D)
		cfg.NumPillars = pillars
		jobs = append(jobs, nim.NewSweepJob(cfg, "swim", opt))
	}

	results := nim.RunSweep(jobs, 2, nil)
	if err := nim.SweepError(results); err != nil {
		panic(err)
	}
	for _, r := range results {
		fmt.Printf("%d pillars: measured %v cycles\n",
			r.Job.Config.NumPillars, r.Results.Cycles)
	}
	fmt.Println("fewer pillars is slower:",
		results[1].Results.AvgL2HitLatency > results[0].Results.AvgL2HitLatency)
	// Output:
	// 8 pillars: measured 30000 cycles
	// 2 pillars: measured 30000 cycles
	// fewer pillars is slower: true
}

func ExampleConfig_WithL2Size() {
	cfg := nim.DefaultConfig(nim.CMPDNUCA3D)
	big, err := cfg.WithL2Size(64)
	fmt.Println(err, big.L2.TotalBytes()>>20, "MB")
	// Output: <nil> 64 MB
}

func ExampleThermalTable3() {
	rows, _ := nim.ThermalTable3()
	stackedHotter := rows[4].Profile.PeakC > rows[1].Profile.PeakC
	fmt.Println("rows:", len(rows))
	fmt.Println("stacking hotter than offsetting:", stackedHotter)
	// Output:
	// rows: 7
	// stacking hotter than offsetting: true
}
