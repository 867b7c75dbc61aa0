package main

import (
	"reflect"
	"strings"
	"testing"

	nim "repro"
)

// tinyJob is a cheap simulation: a few thousand cycles on the default
// machine of scheme s.
func tinyJob(s nim.Scheme, bench string) nim.SweepJob {
	return nim.NewSweepJob(nim.DefaultConfig(s), bench, nim.Options{WarmCycles: 200, MeasureCycles: 1000, Seed: 1})
}

func TestPlanRunsEachDistinctJobOnce(t *testing.T) {
	a, b := tinyJob(nim.CMPDNUCA3D, "mgrid"), tinyJob(nim.CMPSNUCA3D, "mgrid")
	var got []nim.Results
	p := newPlan([]section{{jobs: []nim.SweepJob{a, b, a}, render: func(res []nim.Results) { got = res }}})
	if len(p.jobs) != 2 {
		t.Fatalf("plan runs %d simulations for [A, B, A], want 2", len(p.jobs))
	}
	if err := p.run(2); err != nil {
		t.Fatal(err)
	}
	alone := nim.RunSweep([]nim.SweepJob{a, b}, 1, nil)
	if err := nim.SweepError(alone); err != nil {
		t.Fatal(err)
	}
	if want := []nim.Results{alone[0].Results, alone[1].Results, alone[0].Results}; !reflect.DeepEqual(got, want) {
		t.Error("the section's results differ from running A and B alone, in the order A, B, A")
	}
}

func TestAllPlanDeduplicates(t *testing.T) {
	opt := nim.Options{WarmCycles: 5000, MeasureCycles: 30000, Seed: 1}
	secs := sections(selection{all: true}, []string{"mgrid"}, opt)
	requested := 0
	for _, s := range secs {
		requested += len(s.jobs)
	}
	if distinct := len(newPlan(secs).jobs); requested != 54 || distinct != 43 {
		t.Errorf("-all -bench mgrid plans %d jobs and %d distinct simulations, want 54 and 43", requested, distinct)
	}
}

func TestFailedJobSurfacesAtItsSection(t *testing.T) {
	a := tinyJob(nim.CMPDNUCA3D, "mgrid")
	var printed []string
	sec := func(name string, jobs ...nim.SweepJob) section {
		return section{jobs: jobs, render: func([]nim.Results) { printed = append(printed, name) }}
	}
	p := newPlan([]section{
		sec("table"),
		sec("first", a),
		sec("failing", tinyJob(nim.CMPDNUCA3D, "nope")),
		sec("after", a),
	})
	err := p.run(2)
	if err == nil || !strings.Contains(err.Error(), `unknown benchmark "nope"`) {
		t.Fatalf("run returned %v, want the failed job's error", err)
	}
	if want := []string{"table", "first"}; !reflect.DeepEqual(printed, want) {
		t.Errorf("printed sections %v, want %v", printed, want)
	}
}

func TestSelectionCheck(t *testing.T) {
	for _, sel := range []selection{{}, {all: true}, {table: 1}, {table: 5}, {figure: 13}, {figure: 18}, {seeds: 3}} {
		if err := sel.check(); err != nil {
			t.Errorf("%+v: %v, want accepted", sel, err)
		}
	}
	for _, sel := range []selection{{table: 9}, {table: -1}, {table: 1, figure: 99}, {figure: 12}, {figure: 13, seeds: -3}} {
		if err := sel.check(); err == nil {
			t.Errorf("%+v accepted, want an error", sel)
		}
	}
}

func TestBenchNames(t *testing.T) {
	all, err := benchNames("")
	if err != nil || len(all) != 9 {
		t.Fatalf(`benchNames("") = %v, %v; want the nine SPEC OMP benchmarks`, all, err)
	}
	if got, err := benchNames(strings.Join(all, ",")); err != nil || !reflect.DeepEqual(got, all) {
		t.Errorf("benchNames(all nine) = %v, %v", got, err)
	}
	for _, list := range []string{"nope", "mgrid,nope", "mgrid,", ",mgrid", "mgrid,,swim"} {
		if _, err := benchNames(list); err == nil || !strings.HasPrefix(err.Error(), "unknown benchmark ") {
			t.Errorf("benchNames(%q) returned %v, want an unknown benchmark error", list, err)
		}
	}
}
