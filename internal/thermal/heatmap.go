package thermal

import (
	"io"

	"repro/internal/geom"
)

// heatShades maps normalized temperature to ASCII density, coolest first.
var heatShades = []byte(" .:-=+*#%@")

// WriteHeatMap renders the grid's current per-layer temperature fields as
// ASCII heat maps: one character per cell, shaded from the grid's coolest
// to hottest cell, with cells listed in cpus printed as 'C'. Both
// cmd/thermal3d (steady-state maps) and nimsim -tmap (end-of-window
// transient maps) render through this function, so the format is pinned by
// one golden test.
func WriteHeatMap(w io.Writer, g *Grid, cpus []geom.Coord) error {
	p := g.Profile()
	span := p.PeakC - p.MinC
	if span <= 0 {
		span = 1
	}
	cpuAt := map[geom.Coord]bool{}
	for _, c := range cpus {
		cpuAt[c] = true
	}
	return geom.WriteLayerMaps(w, g.Dim(), "\nlayer %d (C = CPU):\n", func(c geom.Coord) byte {
		if cpuAt[c] {
			return 'C'
		}
		idx := int((g.Temp(c) - p.MinC) / span * float64(len(heatShades)-1))
		return heatShades[min(max(idx, 0), len(heatShades)-1)]
	})
}
