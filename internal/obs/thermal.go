package obs

import (
	"repro/internal/geom"
	"repro/internal/thermal"
)

// DefaultThermalThresholdC is the junction temperature above which the
// tracker accumulates time-above-threshold — the conventional 85 C
// throttling point.
const DefaultThermalThresholdC = 85.0

// ThermalActor closes the control loop on the thermal pipeline: a policy
// layer (internal/dtm) that both observes every freshly stepped grid and
// feeds effects back into the next step's power map. AdjustPower runs
// after the window's dynamic energy is flushed and before the RC step,
// with the window's span in cycles and the per-cell power map (static
// background plus dynamic) to modify in place; GridStepped runs after
// the step, with the cycle-stamped grid state the actor's decisions must
// be a pure function of (the determinism contract of DESIGN.md §13).
type ThermalActor interface {
	AdjustPower(cycles uint64, powerW []float64)
	GridStepped(cycle uint64, g *thermal.Grid)
}

// cpuFeed is one core's activity source: the tracker charges the
// per-window instruction delta at the core's cell.
type cpuFeed struct {
	pos  geom.Coord
	read func() uint64
	last uint64
}

// ThermalTracker is the activity→power→temperature pipeline head: a
// sim.Ticker that, every interval cycles, flushes the energy accountant's
// window into a per-cell power map (plus the grid's static background and
// each CPU's instruction-delta energy) and advances the transient RC
// thermal grid by the window's wall-clock duration. It keeps run-level
// accumulators (peak temperature and where/when it occurred, cycles above
// the threshold) and per-window outputs for the Sampler's thermal columns.
//
// The grid warm-starts at the static steady state (background power only),
// so the transient immediately shows activity-driven deltas instead of
// spending the window climbing from ambient. Steady-state recording
// allocates nothing.
type ThermalTracker struct {
	acct  *EnergyAccountant
	grid  *thermal.Grid
	model EnergyModel

	interval   uint64
	thresholdC float64
	cpus       []cpuFeed
	actor      ThermalActor

	// static is the background power map (thermal.Params.CellPowerW per
	// cell); scratch is static + the flushed window, passed to Step.
	static  []float64
	scratch []float64

	primed    bool
	lastFlush uint64

	// Run-level accumulators.
	steps         uint64
	trackedCycles uint64
	cyclesAbove   uint64
	peakC         float64
	peakCell      geom.Coord
	peakCycle     uint64

	// Last-window outputs, read by the Sampler's thermal gauges.
	lastCompW  [NumPowerComponents]float64
	lastLayers []thermal.Profile
	hotCell    geom.Coord
	hotC       float64
}

// NewThermalTracker builds the pipeline for a chip of the given
// dimensions: an energy accountant charging with model, and a transient
// grid warm-started at the static steady state. interval is the thermal
// step period in cycles (>= 1).
func NewThermalTracker(dim geom.Dim, prm thermal.Params, model EnergyModel, interval uint64) *ThermalTracker {
	if interval < 1 {
		panic("obs: thermal interval must be >= 1")
	}
	grid := thermal.NewGrid(dim, prm)
	grid.Solve(20000, 1e-7) // warm start: static background steady state
	t := &ThermalTracker{
		acct:       NewEnergyAccountant(dim, model),
		grid:       grid,
		model:      model,
		interval:   interval,
		thresholdC: DefaultThermalThresholdC,
		static:     make([]float64, dim.Nodes()),
		scratch:    make([]float64, dim.Nodes()),
		lastLayers: make([]thermal.Profile, dim.Layers),
	}
	for i := range t.static {
		t.static[i] = prm.CellPowerW
	}
	t.hotCell, t.hotC = grid.PeakCell()
	t.peakCell, t.peakC = t.hotCell, t.hotC
	for l := 0; l < dim.Layers; l++ {
		t.lastLayers[l] = grid.LayerProfile(l)
	}
	return t
}

// Sink returns the accountant as an event sink — compose it onto the
// simulation's probe (core.System.Instrument wires this automatically).
func (t *ThermalTracker) Sink() Sink { return t.acct }

// Grid exposes the transient grid (for end-of-window temperature maps).
func (t *ThermalTracker) Grid() *thermal.Grid { return t.grid }

// Interval returns the thermal step period in cycles.
func (t *ThermalTracker) Interval() uint64 { return t.interval }

// SetActor installs the control-loop hook invoked around every thermal
// step (nil detaches it). With no actor the step path is unchanged.
func (t *ThermalTracker) SetActor(a ThermalActor) { t.actor = a }

// AddCPU registers one core's activity feed: read must return the core's
// cumulative committed instruction count; the delta each window is charged
// as CPU energy at pos.
func (t *ThermalTracker) AddCPU(pos geom.Coord, read func() uint64) {
	t.cpus = append(t.cpus, cpuFeed{pos: pos, read: read})
}

// Tick implements sim.Ticker. The first call only primes the CPU activity
// baselines (no thermal step), so attaching mid-run — right after
// ResetStats — measures real windows. Non-boundary cycles cost one modulo
// and a branch.
func (t *ThermalTracker) Tick(cycle uint64) {
	if !t.primed {
		t.primed = true
		t.lastFlush = cycle
		for i := range t.cpus {
			t.cpus[i].last = t.cpus[i].read()
		}
		return
	}
	if cycle == 0 || cycle%t.interval != 0 || cycle == t.lastFlush {
		return
	}
	cycles := cycle - t.lastFlush
	t.lastFlush = cycle

	// Charge each core's instruction delta at its cell.
	for i := range t.cpus {
		cur := t.cpus[i].read()
		d := cur - t.cpus[i].last
		t.cpus[i].last = cur
		if d > 0 {
			t.acct.AddCellEnergy(t.cpus[i].pos, float64(d)*t.model.InstrPJ, PowCPU)
		}
	}

	// Static background + the window's dynamic power, then one RC step of
	// the window's wall-clock duration.
	copy(t.scratch, t.static)
	t.lastCompW = t.acct.FlushWindow(cycles, t.scratch)
	if t.actor != nil {
		t.actor.AdjustPower(cycles, t.scratch)
	}
	dt := float64(cycles) / t.model.ClockHz
	t.grid.Step(dt, t.scratch)

	t.steps++
	t.trackedCycles += cycles
	t.hotCell, t.hotC = t.grid.PeakCell()
	if t.hotC > t.peakC {
		t.peakC, t.peakCell, t.peakCycle = t.hotC, t.hotCell, cycle
	}
	if t.hotC > t.thresholdC {
		t.cyclesAbove += cycles
	}
	for l := range t.lastLayers {
		t.lastLayers[l] = t.grid.LayerProfile(l)
	}
	if t.actor != nil {
		t.actor.GridStepped(cycle, t.grid)
	}
}

// Hotspot returns the hottest cell and its temperature as of the last
// completed thermal step.
func (t *ThermalTracker) Hotspot() (geom.Coord, float64) { return t.hotCell, t.hotC }

// WindowPowerW returns the last window's per-component power in watts.
func (t *ThermalTracker) WindowPowerW() [NumPowerComponents]float64 { return t.lastCompW }

// LayerProfileNow returns a layer's temperature profile as of the last
// completed thermal step.
func (t *ThermalTracker) LayerProfileNow(layer int) thermal.Profile { return t.lastLayers[layer] }

// LayerThermal is one device layer's end-of-window temperature summary.
type LayerThermal struct {
	Layer int
	PeakC float64
	MeanC float64
}

// EnergyBreakdownPJ is the run's charged dynamic energy by component.
type EnergyBreakdownPJ struct {
	NetworkPJ   float64
	BusPJ       float64
	TagsPJ      float64
	BanksPJ     float64
	MigrationPJ float64
	CPUPJ       float64
	TotalPJ     float64
}

// ThermalReport is the run-level thermal summary (Results.Thermal).
type ThermalReport struct {
	// Steps is the number of thermal windows integrated; Cycles their
	// total span; IntervalCycles the configured window length.
	Steps          uint64
	Cycles         uint64
	IntervalCycles uint64

	// PeakC is the hottest cell temperature ever reached, at cell
	// (PeakX, PeakY, PeakLayer) on cycle PeakCycle.
	PeakC     float64
	PeakX     int
	PeakY     int
	PeakLayer int
	PeakCycle uint64

	// CyclesAboveThreshold counts cycles whose window ended with the
	// hotspot above ThresholdC.
	ThresholdC           float64
	CyclesAboveThreshold uint64

	// Final temperatures at window end: chip peak/mean, the per-layer
	// summaries, and the gradient (hottest minus coolest layer mean).
	FinalPeakC float64
	FinalMeanC float64
	GradientC  float64
	Layers     []LayerThermal

	// AvgPowerW is the charged dynamic power averaged over the tracked
	// cycles (background leakage excluded); Energy its breakdown.
	AvgPowerW float64
	Energy    EnergyBreakdownPJ
}

// Report summarizes the run so far.
func (t *ThermalTracker) Report() *ThermalReport {
	p := t.grid.Profile()
	r := &ThermalReport{
		Steps:                t.steps,
		Cycles:               t.trackedCycles,
		IntervalCycles:       t.interval,
		PeakC:                t.peakC,
		PeakX:                t.peakCell.X,
		PeakY:                t.peakCell.Y,
		PeakLayer:            t.peakCell.Layer,
		PeakCycle:            t.peakCycle,
		ThresholdC:           t.thresholdC,
		CyclesAboveThreshold: t.cyclesAbove,
		FinalPeakC:           p.PeakC,
		FinalMeanC:           p.AvgC,
		Layers:               make([]LayerThermal, t.grid.Dim().Layers),
	}
	hottest, coolest := 0.0, 0.0
	for l := range r.Layers {
		lp := t.grid.LayerProfile(l)
		r.Layers[l] = LayerThermal{Layer: l, PeakC: lp.PeakC, MeanC: lp.AvgC}
		if l == 0 || lp.AvgC > hottest {
			hottest = lp.AvgC
		}
		if l == 0 || lp.AvgC < coolest {
			coolest = lp.AvgC
		}
	}
	r.GradientC = hottest - coolest

	tot := t.acct.TotalPJ()
	r.Energy = EnergyBreakdownPJ{
		NetworkPJ:   tot[PowNetwork],
		BusPJ:       tot[PowBus],
		TagsPJ:      tot[PowTags],
		BanksPJ:     tot[PowBanks],
		MigrationPJ: tot[PowMigration],
		CPUPJ:       tot[PowCPU],
	}
	r.Energy.TotalPJ = r.Energy.NetworkPJ + r.Energy.BusPJ + r.Energy.TagsPJ +
		r.Energy.BanksPJ + r.Energy.MigrationPJ + r.Energy.CPUPJ
	if t.trackedCycles > 0 {
		r.AvgPowerW = r.Energy.TotalPJ * 1e-12 * t.model.ClockHz / float64(t.trackedCycles)
	}
	return r
}
