// Replication demonstrates the management alternative the paper discusses
// in Section 2.1: instead of migrating lines toward their accessors
// (CMP-DNUCA-3D), keep the placement static and leave read-only replicas in
// each reader's local cluster (victim replication, after Zhang & Asanovic).
// The example compares three 3D organizations on a sharing-heavy workload.
//
//	go run ./examples/replication [benchmark]
package main

import (
	"fmt"
	"log"
	"os"

	nim "repro"
)

func main() {
	bench := "equake" // the most sharing-heavy profile
	if len(os.Args) > 1 {
		bench = os.Args[1]
	}
	opt := nim.DefaultOptions()
	opt.MeasureCycles = 300_000 // replicas need reuse distance to pay off

	fmt.Printf("benchmark: %s\n\n", bench)
	fmt.Printf("%-22s %12s %8s %10s %12s %13s\n",
		"organization", "L2 hit lat", "IPC", "migrations", "replications", "replica hits")

	// The replication ablation's plain and replicated SNUCA-3D jobs, then
	// DNUCA-3D, in one sweep.
	pair := nim.ReplicationAblationJobs(bench, opt)
	jobs := append(pair[:], nim.NewSweepJob(nim.DefaultConfig(nim.CMPDNUCA3D), bench, opt))
	rs := nim.RunSweep(jobs, 0, nil)
	if err := nim.SweepError(rs); err != nil {
		log.Fatal(err)
	}
	for i, name := range []string{"SNUCA-3D (static)", "SNUCA-3D + replication", "DNUCA-3D (migration)"} {
		r := rs[i].Results
		fmt.Printf("%-22s %9.1f cy %8.3f %10d %12d %13d\n",
			name, r.AvgL2HitLatency, r.IPC, r.Migrations, r.Replications, r.ReplicaHits)
	}
	static, vr, dnuca := rs[0].Results, rs[1].Results, rs[2].Results

	fmt.Printf("\nreplication vs static:   %+.1f cycles\n", vr.AvgL2HitLatency-static.AvgL2HitLatency)
	fmt.Printf("migration vs static:     %+.1f cycles\n", dnuca.AvgL2HitLatency-static.AvgL2HitLatency)
	fmt.Println("\nmigration moves each line once toward its dominant reader; replication")
	fmt.Println("copies shared lines everywhere they are read but pays invalidations on")
	fmt.Println("writes — which wins depends on the read-write mix of the shared data.")
}
