package thermal

import (
	"repro/internal/config"
)

// Table3Row is one configuration of the paper's Table 3.
type Table3Row struct {
	Name       string
	PaperPeakC float64
	PaperAvgC  float64
	PaperMinC  float64
	Profile    Profile
	// Grid is the solved steady-state grid the Profile summarizes (filled
	// by Table3), for rendering the row's heat map.
	Grid *Grid
	// Iters and Converged report the steady-state solver's behavior for
	// this row (filled by Table3): the Gauss–Seidel iteration count and
	// whether it reached tolerance before the iteration cap.
	Iters     int
	Converged bool
}

// Table3Configs builds the seven configurations of Table 3. The k-offset
// rows share four pillars between the eight CPUs (Algorithm 1 with one CPU
// per pillar per layer), which is what makes the offset distance k
// meaningful; stacking rows force CPUs into vertical columns. The returned
// rows carry only the paper's reference numbers; Table3 fills the modeled
// profiles.
func Table3Configs() ([]Table3Row, []config.Config) {
	mk := func(layers, pillars, k int, stack bool) config.Config {
		c := config.Default(config.CMPDNUCA3D)
		c.Layers = layers
		c.NumPillars = pillars
		c.OffsetK = k
		c.StackCPUs = stack
		return c
	}
	rows := []Table3Row{
		{Name: "2D, maximal offset", PaperPeakC: 111.05, PaperAvgC: 53.96, PaperMinC: 46.77},
		{Name: "3D-2L, optimal offset", PaperPeakC: 119.05, PaperAvgC: 63.94, PaperMinC: 49.21},
		{Name: "3D-2L, offset k=2", PaperPeakC: 125.02, PaperAvgC: 63.94, PaperMinC: 49.59},
		{Name: "3D-2L, offset k=1", PaperPeakC: 135.24, PaperAvgC: 63.94, PaperMinC: 49.52},
		{Name: "3D-2L, CPU stacking", PaperPeakC: 173.38, PaperAvgC: 63.94, PaperMinC: 50.73},
		{Name: "3D-4L, optimal offset", PaperPeakC: 158.67, PaperAvgC: 86.62, PaperMinC: 64.79},
		{Name: "3D-4L, CPU stacking", PaperPeakC: 287.12, PaperAvgC: 86.62, PaperMinC: 58.51},
	}
	cfgs := []config.Config{
		config.Default(config.CMPDNUCA2D),
		mk(2, 8, 1, false),
		mk(2, 4, 2, false),
		mk(2, 4, 1, false),
		mk(2, 8, 1, true),
		mk(4, 8, 1, false),
		mk(4, 8, 1, true),
	}
	return rows, cfgs
}

// Table3 reproduces the paper's Table 3: the steady-state thermal profile
// of each CPU placement configuration.
func Table3(prm Params) ([]Table3Row, error) {
	rows, cfgs := Table3Configs()
	for i, cfg := range cfgs {
		top, err := config.NewTopology(cfg)
		if err != nil {
			return nil, err
		}
		g, iters, converged := SimulateGrid(top.Dim, top.CPUs, prm)
		rows[i].Profile = g.Profile()
		rows[i].Grid = g
		rows[i].Iters = iters
		rows[i].Converged = converged
	}
	return rows, nil
}
