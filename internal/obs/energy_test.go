package obs

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/thermal"
)

// testModel is a calibration with distinct, easily-summed costs so each
// charging rule's arithmetic is visible in the assertions.
func testModel() EnergyModel {
	return EnergyModel{
		ClockHz:     500e6,
		FlitHopPJ:   100,
		VCStallPJ:   10,
		BusFlitPJ:   8,
		TagProbePJ:  50,
		BankReadPJ:  400,
		BankWritePJ: 450,
		MigrationPJ: 400,
		InstrPJ:     1000,
	}
}

func testDim() geom.Dim { return geom.Dim{Width: 4, Height: 4, Layers: 2} }

func TestEnergyAccountantChargingRules(t *testing.T) {
	dim := testDim()
	a := NewEnergyAccountant(dim, testModel())

	// A 3-flit packet's head hop charges Size x FlitHopPJ at the router.
	a.Record(Event{Kind: EvHop, X: 1, Y: 2, Layer: 0, B: 3})
	// A bus grant splits its cost across the transceiver pair's layers.
	a.Record(Event{Kind: EvBusGrant, X: 2, Y: 2, A: 0, B: 1})
	// Cache SRAM events charge at their own cell.
	a.Record(Event{Kind: EvTagProbe, X: 0, Y: 0, Layer: 1})
	a.Record(Event{Kind: EvBankRead, X: 3, Y: 3, Layer: 1})
	a.Record(Event{Kind: EvBankWrite, X: 3, Y: 3, Layer: 1})
	a.Record(Event{Kind: EvMigStep, X: 1, Y: 1, Layer: 0})
	// Events without energy semantics are free.
	a.Record(Event{Kind: EvInject, X: 0, Y: 0, Layer: 0})
	a.Record(Event{Kind: EvEject, X: 0, Y: 0, Layer: 0})
	a.Record(Event{Kind: EvSlotGrow, X: 0, Y: 0, Layer: 0})
	a.Record(Event{Kind: EvCohUpgrade, X: 0, Y: 0, Layer: 0})
	// Malformed coordinates must not corrupt the map.
	a.Record(Event{Kind: EvHop, X: 99, Y: 0, Layer: 0, B: 1})

	dst := make([]float64, dim.Nodes())
	cycles := uint64(1000)
	comp := a.FlushWindow(cycles, dst)

	// watts = pJ * 1e-12 * ClockHz / cycles = pJ * 5e-7 at 500 MHz / 1k cycles.
	scale := 1e-12 * 500e6 / float64(cycles)
	wants := map[PowerComponent]float64{
		PowNetwork:   300 * scale,
		PowBus:       8 * scale,
		PowTags:      50 * scale,
		PowBanks:     850 * scale,
		PowMigration: 400 * scale,
		PowCPU:       0,
	}
	for c, want := range wants {
		if got := comp[c]; math.Abs(got-want) > 1e-15 {
			t.Errorf("%s window power = %v W, want %v", c, got, want)
		}
	}

	cell := func(x, y, l int) float64 { return dst[dim.Index(geom.Coord{X: x, Y: y, Layer: l})] }
	if got := cell(1, 2, 0); math.Abs(got-300*scale) > 1e-15 {
		t.Errorf("hop cell power = %v, want %v", got, 300*scale)
	}
	if got, want := cell(2, 2, 0), 4*scale; math.Abs(got-want) > 1e-15 {
		t.Errorf("bus tx-layer cell = %v, want %v", got, want)
	}
	if got, want := cell(2, 2, 1), 4*scale; math.Abs(got-want) > 1e-15 {
		t.Errorf("bus dst-layer cell = %v, want %v", got, want)
	}
	if got, want := cell(3, 3, 1), 850*scale; math.Abs(got-want) > 1e-15 {
		t.Errorf("bank cell = %v, want %v", got, want)
	}

	// The flush zeroed the window and folded it into the totals.
	var second [NumPowerComponents]float64 = a.FlushWindow(cycles, make([]float64, dim.Nodes()))
	for c, v := range second {
		if v != 0 {
			t.Errorf("%s power non-zero (%v) after empty window", PowerComponent(c), v)
		}
	}
	tot := a.TotalPJ()
	if got := tot[PowNetwork]; got != 300 {
		t.Errorf("cumulative network energy = %v pJ, want 300", got)
	}
	if got := tot[PowBanks]; got != 850 {
		t.Errorf("cumulative bank energy = %v pJ, want 850", got)
	}
}

func TestEnergyAccountantRecordAllocFree(t *testing.T) {
	a := NewEnergyAccountant(testDim(), testModel())
	e := Event{Kind: EvHop, X: 1, Y: 1, Layer: 0, B: 3}
	if n := testing.AllocsPerRun(200, func() { a.Record(e) }); n != 0 {
		t.Fatalf("Record allocates %v per event, want 0", n)
	}
}

func TestThermalTrackerStepsAndReport(t *testing.T) {
	dim := testDim()
	model := testModel()
	tt := NewThermalTracker(dim, thermal.DefaultParams(), model, 100)

	var instrs uint64
	tt.AddCPU(geom.Coord{X: 1, Y: 1, Layer: 0}, func() uint64 { return instrs })

	// The warm-started grid sits at the static steady state.
	_, base := tt.Grid().PeakCell()

	sink := tt.Sink()
	tt.Tick(0) // primes baselines, no step

	// Two windows of activity: events via the sink, instructions via the
	// CPU feed.
	for w := 1; w <= 2; w++ {
		for c := uint64(0); c < 100; c++ {
			sink.Record(Event{Kind: EvHop, X: 1, Y: 1, Layer: 0, B: 4})
			instrs += 2
		}
		tt.Tick(uint64(w * 100))
	}

	r := tt.Report()
	if r.Steps != 2 || r.Cycles != 200 {
		t.Fatalf("steps=%d cycles=%d, want 2/200", r.Steps, r.Cycles)
	}
	if r.IntervalCycles != 100 {
		t.Fatalf("interval = %d, want 100", r.IntervalCycles)
	}
	_, now := tt.Grid().PeakCell()
	if now <= base {
		t.Fatalf("activity did not heat the grid: %v C -> %v C", base, now)
	}
	if r.PeakC < now-1e-9 {
		t.Fatalf("running peak %v below current peak %v", r.PeakC, now)
	}
	wantNet := 2 * 100 * 4 * model.FlitHopPJ
	if math.Abs(r.Energy.NetworkPJ-wantNet) > 1e-9 {
		t.Fatalf("network energy = %v pJ, want %v", r.Energy.NetworkPJ, wantNet)
	}
	wantCPU := 2 * 100 * 2 * model.InstrPJ
	if math.Abs(r.Energy.CPUPJ-wantCPU) > 1e-9 {
		t.Fatalf("cpu energy = %v pJ, want %v", r.Energy.CPUPJ, wantCPU)
	}
	if r.Energy.TotalPJ <= 0 || r.AvgPowerW <= 0 {
		t.Fatal("empty totals after two active windows")
	}
	if len(r.Layers) != dim.Layers {
		t.Fatalf("%d layer summaries, want %d", len(r.Layers), dim.Layers)
	}

	// Re-ticking the same cycle must not double-step.
	tt.Tick(200)
	if r2 := tt.Report(); r2.Steps != 2 {
		t.Fatalf("duplicate tick advanced steps to %d", r2.Steps)
	}
}

func TestThermalTrackerThreshold(t *testing.T) {
	tt := NewThermalTracker(testDim(), thermal.DefaultParams(), testModel(), 10)
	tt.thresholdC = 0 // everything is "hot"
	tt.Tick(0)
	tt.Tick(10)
	if r := tt.Report(); r.CyclesAboveThreshold != 10 {
		t.Fatalf("cycles above a 0 C threshold = %d, want 10", r.CyclesAboveThreshold)
	}
}

func TestThermalTrackerTickAllocFree(t *testing.T) {
	tt := NewThermalTracker(testDim(), thermal.DefaultParams(), testModel(), 10)
	tt.AddCPU(geom.Coord{X: 0, Y: 0, Layer: 0}, func() uint64 { return 0 })
	tt.Tick(0)
	sink := tt.Sink()
	var cycle uint64
	n := testing.AllocsPerRun(100, func() {
		cycle += 10
		sink.Record(Event{Kind: EvHop, X: 1, Y: 1, Layer: 0, B: 2})
		tt.Tick(cycle)
	})
	if n != 0 {
		t.Fatalf("steady-state thermal tick allocates %v, want 0", n)
	}
}

func TestTeeComposition(t *testing.T) {
	var a, b countSink
	if Tee(nil, nil) != nil {
		t.Fatal("Tee(nil, nil) should elide to nil")
	}
	if got := Tee(&a, nil); got != &a {
		t.Fatal("Tee(a, nil) should return a unchanged")
	}
	if got := Tee(nil, &b); got != &b {
		t.Fatal("Tee(nil, b) should return b unchanged")
	}
	both := Tee(&a, &b)
	both.Record(Event{Kind: EvHop})
	both.Record(Event{Kind: EvEject})
	if a != 2 || b != 2 {
		t.Fatalf("tee delivered %d/%d events, want 2/2", a, b)
	}
}

type countSink int

func (c *countSink) Record(Event) { *c++ }
