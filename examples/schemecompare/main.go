// Schemecompare runs one scientific workload under all four L2
// organizations the paper evaluates and prints the comparison the paper's
// introduction motivates: does stacking the cache in 3D beat sophisticated
// 2D data migration?
//
//	go run ./examples/schemecompare [benchmark]
package main

import (
	"fmt"
	"log"
	"os"

	nim "repro"
)

func main() {
	bench := "swim"
	if len(os.Args) > 1 {
		bench = os.Args[1]
	}
	opt := nim.DefaultOptions()

	fmt.Printf("benchmark: %s\n\n", bench)
	fmt.Printf("%-14s %12s %10s %12s %12s\n",
		"scheme", "L2 hit lat", "IPC", "migrations", "flit-hops")

	schemes := nim.Schemes()
	jobs := make([]nim.SweepJob, len(schemes))
	for i, s := range schemes {
		jobs[i] = nim.NewSweepJob(nim.DefaultConfig(s), bench, opt)
	}
	rs := nim.RunSweep(jobs, 0, nil)
	if err := nim.SweepError(rs); err != nil {
		log.Fatal(err)
	}
	results := make(map[nim.Scheme]nim.Results, len(schemes))
	for i, s := range schemes {
		r := rs[i].Results
		results[s] = r
		fmt.Printf("%-14s %9.1f cy %10.3f %12d %12d\n",
			r.Scheme, r.AvgL2HitLatency, r.IPC, r.Migrations, r.FlitHops)
	}

	d2 := results[nim.CMPDNUCA2D]
	s3 := results[nim.CMPSNUCA3D]
	d3 := results[nim.CMPDNUCA3D]
	fmt.Printf("\nthe paper's central claim, on this run:\n")
	fmt.Printf("  3D without migration vs 2D with migration: %+.1f cycles\n",
		s3.AvgL2HitLatency-d2.AvgL2HitLatency)
	fmt.Printf("  adding migration to 3D:                    %+.1f cycles\n",
		d3.AvgL2HitLatency-s3.AvgL2HitLatency)
	fmt.Printf("  IPC improvement, DNUCA-3D over DNUCA-2D:   %+.1f%%\n",
		100*(d3.IPC-d2.IPC)/d2.IPC)
	fmt.Printf("  migration reduction in 3D:                 %.0f%%\n",
		100*(1-float64(d3.Migrations)/float64(d2.Migrations)))
}
