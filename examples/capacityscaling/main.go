// Capacityscaling explores the paper's Figure 16 question for a cache
// architect: as the shared L2 grows from 16 MB to 64 MB, how much does each
// topology's hit latency degrade? The 3D organization grows its mesh by
// the square root of the capacity per layer, so it scales better.
//
//	go run ./examples/capacityscaling [benchmark]
package main

import (
	"fmt"
	"log"
	"os"

	nim "repro"
)

func main() {
	bench := "art"
	if len(os.Args) > 1 {
		bench = os.Args[1]
	}
	opt := nim.DefaultOptions()

	fmt.Printf("benchmark: %s\n\n", bench)
	fmt.Printf("%6s %18s %18s\n", "L2", "CMP-DNUCA-2D", "CMP-DNUCA-3D")

	sizes := []int{16, 32, 64}
	var jobs []nim.SweepJob
	for _, mb := range sizes {
		for _, s := range []nim.Scheme{nim.CMPDNUCA2D, nim.CMPDNUCA3D} {
			cfg, err := nim.DefaultConfig(s).WithL2Size(mb)
			if err != nil {
				log.Fatal(err)
			}
			jobs = append(jobs, nim.NewSweepJob(cfg, bench, opt))
		}
	}
	rs := nim.RunSweep(jobs, 0, nil)
	if err := nim.SweepError(rs); err != nil {
		log.Fatal(err)
	}

	type point struct{ lat2, lat3 float64 }
	var pts []point
	for i, mb := range sizes {
		r2, r3 := rs[2*i].Results, rs[2*i+1].Results
		fmt.Printf("%4dMB %15.1f cy %15.1f cy\n", mb, r2.AvgL2HitLatency, r3.AvgL2HitLatency)
		pts = append(pts, point{r2.AvgL2HitLatency, r3.AvgL2HitLatency})
	}

	grow2 := (pts[2].lat2 - pts[0].lat2) / 2
	grow3 := (pts[2].lat3 - pts[0].lat3) / 2
	fmt.Printf("\nlatency growth per doubling: 2D %+.1f cycles, 3D %+.1f cycles\n", grow2, grow3)
	fmt.Println("(the paper reports ~7 for 2D vs ~5 for 3D: 3D scales better)")
}
