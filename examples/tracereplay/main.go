// Tracereplay drives the simulator from an external reference trace instead
// of the built-in SPEC OMP models — the integration point for users with
// their own Pin/DynamoRIO-style address traces.
//
// With no arguments it synthesizes a small demonstration trace (a blocked
// matrix sweep with a shared lookup table) for each core, writes it to a
// temporary file, and replays it through CMP-DNUCA-3D and CMP-SNUCA-3D.
// Pass file names (one per core, cycled) to replay your own traces:
//
//	go run ./examples/tracereplay trace0.txt trace1.txt ...
//
// Trace format: one reference per line, "R|W|F <hex line address> [gap]",
// where F marks an instruction fetch attaching to the next data reference
// and gap is the count of non-memory instructions preceding the reference.
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	nim "repro"
)

func main() {
	cfg := nim.DefaultConfig(nim.CMPDNUCA3D)

	var streams []nim.Stream
	var footprint []nim.LineAddr
	if len(os.Args) > 1 {
		files := os.Args[1:]
		for i := 0; i < cfg.NumCPUs; i++ {
			f, err := os.Open(files[i%len(files)])
			if err != nil {
				log.Fatal(err)
			}
			fs, err := nim.ParseTrace(f)
			f.Close()
			if err != nil {
				log.Fatal(err)
			}
			streams = append(streams, fs)
			footprint = append(footprint, fs.Footprint()...)
		}
	} else {
		fmt.Println("no trace files given; synthesizing a demonstration trace per core")
		for i := 0; i < cfg.NumCPUs; i++ {
			fs, err := nim.ParseTrace(strings.NewReader(demoTrace(i)))
			if err != nil {
				log.Fatal(err)
			}
			streams = append(streams, fs)
			footprint = append(footprint, fs.Footprint()...)
		}
	}

	for _, scheme := range []nim.Scheme{nim.CMPSNUCA3D, nim.CMPDNUCA3D} {
		c := nim.DefaultConfig(scheme)
		sim, err := nim.NewTraceSimulation(c, streams, "replayed-trace")
		if err != nil {
			log.Fatal(err)
		}
		sim.WarmAddresses(footprint)
		sim.Start()
		sim.Run(30_000)
		sim.ResetStats()
		sim.Run(120_000)
		r := sim.Results()
		fmt.Printf("%-14s L2 hit latency %6.1f cy   IPC %.3f   hits %d   misses %d\n",
			r.Scheme, r.AvgL2HitLatency, r.IPC, r.L2Hits, r.L2Misses)

		// Streams are stateful; rebuild them for the next scheme.
		if len(os.Args) <= 1 {
			for i := range streams {
				streams[i], _ = nim.ParseTrace(strings.NewReader(demoTrace(i)))
			}
		} else {
			for i := range streams {
				f, err := os.Open(os.Args[1:][i%len(os.Args[1:])])
				if err != nil {
					log.Fatal(err)
				}
				streams[i], err = nim.ParseTrace(f)
				f.Close()
				if err != nil {
					log.Fatal(err)
				}
			}
		}
	}
}

// demoTrace builds a toy per-core trace: a streaming sweep over a private
// 4096-line array (too large for the 1024-line L1, so the sweep reaches
// the L2 on every lap) interleaved with reads of a shared table and the
// occasional store.
func demoTrace(cpu int) string {
	var b strings.Builder
	privBase := 0x100000 + cpu*0x10000
	const sharedBase = 0x1000
	for i := 0; i < 8192; i++ {
		switch {
		case i%7 == 3:
			fmt.Fprintf(&b, "R %x 2\n", sharedBase+i%2048)
		case i%11 == 5:
			fmt.Fprintf(&b, "W %x 1\n", privBase+i%4096)
		default:
			fmt.Fprintf(&b, "R %x 3\n", privBase+i%4096)
		}
	}
	return b.String()
}
