package core

import (
	"fmt"
	"io"

	"repro/internal/geom"
)

// WriteHeatmap renders per-layer ASCII maps of router utilization
// (forwarded flits since construction), marking processors and pillars.
// It visualizes the congestion arguments of Section 3.3: traffic
// concentrates around pillars and CPU clusters, and stacking CPUs on a
// pillar column saturates it.
func (s *System) WriteHeatmap(w io.Writer) {
	dim := s.Top.Dim
	var max uint64
	for i := 0; i < dim.Nodes(); i++ {
		if f := s.Fab.Router(dim.CoordOf(i)).ForwardedFlits; f > max {
			max = f
		}
	}
	if max == 0 {
		max = 1
	}
	shades := []byte(" .:-=+*#%@")
	cpuAt := make(map[geom.Coord]bool, len(s.Top.CPUs))
	for _, c := range s.Top.CPUs {
		cpuAt[c] = true
	}
	pillarAt := make(map[[2]int]bool, len(s.Top.Pillars))
	for _, p := range s.Top.Pillars {
		pillarAt[[2]int{p.X, p.Y}] = true
	}

	fmt.Fprintf(w, "router utilization (max %d flits; C = CPU node, P = pillar-only node)\n", max)
	geom.WriteLayerMaps(w, dim, "layer %d:\n", func(c geom.Coord) byte {
		switch {
		case cpuAt[c]:
			return 'C'
		case pillarAt[[2]int{c.X, c.Y}]:
			return 'P'
		}
		return shades[uint64(len(shades)-1)*s.Fab.Router(c).ForwardedFlits/max]
	})
}

// BusReport summarizes each pillar bus: flits carried and utilization over
// the machine's lifetime.
func (s *System) BusReport(w io.Writer) {
	buses := s.Fab.Buses()
	if len(buses) == 0 {
		fmt.Fprintln(w, "no pillar buses (single layer or router-vertical mode)")
		return
	}
	cycles := s.Engine.Now()
	if cycles == 0 {
		cycles = 1
	}
	fmt.Fprintf(w, "%-8s %10s %12s %12s\n", "pillar", "position", "flits", "utilization")
	for _, b := range buses {
		fmt.Fprintf(w, "bus %-4d %10v %12d %11.2f%%\n",
			b.ID(), b.Pos(), b.TotalFlits, 100*float64(b.BusyCycles)/float64(cycles))
	}
}
