package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// benchmarkFile is the part of ../BENCHMARK.json the benchmark must agree
// with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestWorkloads runs every workload untraced and traced at a thousandth of
// its size, with the experiments sweep cut to one table, and checks that
// every output passes its checks and that the metrics emitted are exactly
// the ones BENCHMARK.json declares, with its units.
func TestWorkloads(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatalf("parsing BENCHMARK.json: %v", err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here", i, file.Workloads[i].Name, w.name)
		}
	}

	bin := filepath.Join(t.TempDir(), "experiments")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/experiments").CombinedOutput(); err != nil {
		t.Fatalf("building cmd/experiments: %v\n%s", err, out)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, w := range workloads {
		for trace, want := range [][]declared{file.EndToEnd, file.PerLayer} {
			o := opts{seed: 1, seconds: time.Millisecond, quick: true, expBin: bin}
			rep, det, err := measure(w, o, trace == 1, filepath.Join(t.TempDir(), "spans.json"))
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace %d: correct %v, %d of %d failed: %v",
					w.name, trace, rep.Correct, rep.Failed, rep.Attempted, det.Problems)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics emitted, BENCHMARK.json declares %d",
					w.name, trace, len(rep.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := rep.Metrics[d.Name]
				switch {
				case !valid.MatchString(d.Name):
					t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", d.Name)
				case !ok:
					t.Errorf("%s trace %d: metric %s not emitted", w.name, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s trace %d: metric %s in %s, BENCHMARK.json says %s", w.name, trace, d.Name, m.Unit, d.Unit)
				}
			}
		}
	}
}
