package topo

import "fmt"

// Torus is a w×h 2D torus: the mesh with wraparound links in both
// dimensions. It reuses the mesh port numbering (Local, North, East, South,
// West) and row-major node IDs; only the edge ports differ, wrapping to the
// opposite edge instead of dangling. Every router therefore has full degree
// 4, and the bisection width doubles relative to the equal-sized mesh.
type Torus struct {
	w, h int
}

// NewTorus returns the w×h torus. Both dimensions must be at least 2 so
// that every wraparound link connects distinct routers; on a 2-wide ring
// the direct and wraparound links are parallel links between the same pair,
// which the port-indexed simulator state handles correctly.
func NewTorus(w, h int) (*Torus, error) {
	if w < 2 || h < 2 {
		return nil, fmt.Errorf("topo: torus dimensions %dx%d, need at least 2x2", w, h)
	}
	return &Torus{w: w, h: h}, nil
}

// Width returns the torus width.
func (t *Torus) Width() int { return t.w }

// Height returns the torus height.
func (t *Torus) Height() int { return t.h }

// Name implements Topology.
func (t *Torus) Name() string { return fmt.Sprintf("%dx%d torus", t.w, t.h) }

// Nodes implements Topology.
func (t *Torus) Nodes() int { return t.w * t.h }

// Ports implements Topology.
func (t *Torus) Ports() int { return len(gridPortNames) }

// Neighbor implements Topology.
func (t *Torus) Neighbor(id, port int) int {
	x, y := id%t.w, id/t.w
	switch port {
	case North:
		y = (y - 1 + t.h) % t.h
	case East:
		x = (x + 1) % t.w
	case South:
		y = (y + 1) % t.h
	case West:
		x = (x - 1 + t.w) % t.w
	default:
		return -1
	}
	return y*t.w + x
}

// Opposite implements Topology.
func (t *Torus) Opposite(port int) int { return gridOpposite(port) }

// PortName implements Topology.
func (t *Torus) PortName(port int) string { return gridPortName(port) }

// Label implements Topology.
func (t *Torus) Label(id int) string { return Coord{id % t.w, id / t.w}.String() }

// PortTo implements Topology. On a 2-wide ring both the East and West port
// of a reach b; the lower port (East) is returned.
func (t *Torus) PortTo(a, b int) int { return portTo(t, a, b) }

// Links implements Topology: every router's East and South link, which
// enumerates each ring link exactly once (and, on a 2-ring, each of the two
// parallel links once).
func (t *Torus) Links() [][2]int { return gridLinks(t) }

var _ Topology = (*Torus)(nil)
