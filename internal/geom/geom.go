// Package geom provides the coordinate system and distance metrics for the
// 3D Network-in-Memory topology: stacked device layers, each carrying a 2D
// mesh of nodes, with vertical pillar positions shared by all layers.
package geom

import (
	"fmt"
	"io"
)

// Coord identifies a node in the 3D chip: a position (X, Y) within the 2D
// mesh of a device layer, plus the layer index (0 = bottom).
type Coord struct {
	X, Y, Layer int
}

// String renders the coordinate as "(x,y,Lz)".
func (c Coord) String() string {
	return fmt.Sprintf("(%d,%d,L%d)", c.X, c.Y, c.Layer)
}

// SameLayer reports whether both coordinates are on the same device layer.
func (c Coord) SameLayer(o Coord) bool { return c.Layer == o.Layer }

// ManhattanXY returns the in-plane Manhattan distance, ignoring layers.
// It is the hop count of dimension-order routing within one layer.
func (c Coord) ManhattanXY(o Coord) int {
	return abs(c.X-o.X) + abs(c.Y-o.Y)
}

// HopsVia returns the total network hops from c to o when the vertical
// traversal happens at pillar p: in-plane hops to the pillar, one hop for
// the single-hop dTDMA bus (any number of layers), and in-plane hops from
// the pillar to the destination. If c and o share a layer the pillar is
// irrelevant and the plain Manhattan distance is returned.
func (c Coord) HopsVia(o Coord, p Coord) int {
	if c.SameLayer(o) {
		return c.ManhattanXY(o)
	}
	return c.ManhattanXY(Coord{p.X, p.Y, c.Layer}) + 1 + o.ManhattanXY(Coord{p.X, p.Y, o.Layer})
}

// Dim describes the mesh dimensions of the chip: Width x Height nodes per
// layer, and Layers stacked device layers.
type Dim struct {
	Width, Height, Layers int
}

// Nodes returns the total number of mesh nodes in the chip.
func (d Dim) Nodes() int { return d.Width * d.Height * d.Layers }

// NodesPerLayer returns the number of mesh nodes on one layer.
func (d Dim) NodesPerLayer() int { return d.Width * d.Height }

// Contains reports whether c is a valid coordinate within the chip.
func (d Dim) Contains(c Coord) bool {
	return c.X >= 0 && c.X < d.Width &&
		c.Y >= 0 && c.Y < d.Height &&
		c.Layer >= 0 && c.Layer < d.Layers
}

// Index flattens a coordinate to a dense index in [0, Nodes()).
func (d Dim) Index(c Coord) int {
	return c.Layer*d.Width*d.Height + c.Y*d.Width + c.X
}

// CoordOf is the inverse of Index.
func (d Dim) CoordOf(i int) Coord {
	per := d.Width * d.Height
	l := i / per
	r := i % per
	return Coord{X: r % d.Width, Y: r / d.Width, Layer: l}
}

// WriteLayerMaps renders one ASCII map per layer of d, bottom layer first:
// title formatted with the layer index, then one line per row holding
// cell's byte for each node of the row. The router-utilization,
// temperature and placement maps all draw through it; each keeps its own
// legend in title and its own rule in cell.
func WriteLayerMaps(w io.Writer, d Dim, title string, cell func(Coord) byte) error {
	line := make([]byte, d.Width+1)
	line[d.Width] = '\n'
	for l := 0; l < d.Layers; l++ {
		if _, err := fmt.Fprintf(w, title, l); err != nil {
			return err
		}
		for y := 0; y < d.Height; y++ {
			for x := range d.Width {
				line[x] = cell(Coord{X: x, Y: y, Layer: l})
			}
			if _, err := w.Write(line); err != nil {
				return err
			}
		}
	}
	return nil
}

// Direction identifies one of the router's physical channels in the mesh,
// including the vertical pillar port of gateway routers.
type Direction int

// Mesh directions. Local is the processing-element port; Vertical is the
// dTDMA pillar port present only on pillar routers. Up and Down exist only
// in the 7-port-router ablation (the design alternative the paper
// considered and rejected in Section 3.1), where vertical traversal is
// hop-by-hop through stacked routers instead of a single-hop bus.
const (
	North Direction = iota
	South
	East
	West
	Local
	Vertical
	Up
	Down
	NumDirections
)

// String returns the conventional single-word name of the direction.
func (dir Direction) String() string {
	switch dir {
	case North:
		return "North"
	case South:
		return "South"
	case East:
		return "East"
	case West:
		return "West"
	case Local:
		return "Local"
	case Vertical:
		return "Vertical"
	case Up:
		return "Up"
	case Down:
		return "Down"
	}
	return fmt.Sprintf("Direction(%d)", int(dir))
}

// Opposite returns the facing direction (North<->South, East<->West).
// Local and Vertical are their own opposites.
func (dir Direction) Opposite() Direction {
	switch dir {
	case North:
		return South
	case South:
		return North
	case East:
		return West
	case West:
		return East
	case Up:
		return Down
	case Down:
		return Up
	}
	return dir
}

// Step returns the coordinate one hop from c in the given in-plane
// direction. North decreases Y; East increases X.
func Step(c Coord, dir Direction) Coord {
	switch dir {
	case North:
		return Coord{c.X, c.Y - 1, c.Layer}
	case South:
		return Coord{c.X, c.Y + 1, c.Layer}
	case East:
		return Coord{c.X + 1, c.Y, c.Layer}
	case West:
		return Coord{c.X - 1, c.Y, c.Layer}
	case Up:
		return Coord{c.X, c.Y, c.Layer + 1}
	case Down:
		return Coord{c.X, c.Y, c.Layer - 1}
	}
	return c
}

// DOR computes the next in-plane hop under dimension-order (X then Y)
// routing from cur toward dst, both assumed to be on the same layer.
// It returns Local when cur already equals dst's in-plane position.
func DOR(cur, dst Coord) Direction {
	switch {
	case cur.X < dst.X:
		return East
	case cur.X > dst.X:
		return West
	case cur.Y < dst.Y:
		return South
	case cur.Y > dst.Y:
		return North
	}
	return Local
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
