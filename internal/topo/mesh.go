package topo

import (
	"fmt"
	"math"
)

// Mesh and torus link ports, after Local. The order is the arbiter scan
// order every mesh result depends on.
const (
	North = iota + 1 // toward smaller Y
	East             // toward larger X
	South            // toward larger Y
	West             // toward smaller X
)

var gridPortNames = [...]string{"Local", "North", "East", "South", "West"}

// gridPortName is the mesh and torus PortName.
func gridPortName(port int) string {
	if port < 0 || port >= len(gridPortNames) {
		return fmt.Sprintf("Direction(%d)", port)
	}
	return gridPortNames[port]
}

// gridOpposite is the mesh and torus Opposite: the port facing port, and
// Local for Local and for ports past West.
func gridOpposite(port int) int {
	switch port {
	case North:
		return South
	case East:
		return West
	case South:
		return North
	case West:
		return East
	}
	return Local
}

// Coord is a mesh coordinate. The origin is the top-left corner, X grows
// east and Y grows south, as in the paper.
type Coord struct {
	X, Y int
}

// String returns the coordinate in "(x,y)" form.
func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// EuclideanSq returns the squared Euclidean distance between c and d.
// The square is exact in integers, which keeps Algorithm 1's sort free of
// floating-point tie ambiguity.
func (c Coord) EuclideanSq(d Coord) int {
	dx, dy := c.X-d.X, c.Y-d.Y
	return dx*dx + dy*dy
}

// Euclidean returns the Euclidean distance between c and d.
func (c Coord) Euclidean(d Coord) float64 {
	return math.Sqrt(float64(c.EuclideanSq(d)))
}

// Hamming returns the Hamming (Manhattan) distance between c and d: the
// number of hops a dimension-order-routed packet traverses between them.
func (c Coord) Hamming(d Coord) int {
	return abs(c.X-d.X) + abs(c.Y-d.Y)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Mesh is the W×H 2-D mesh: the geometry of the paper's activation order,
// CDOR and floorplan, and the topology of every mesh simulation. Node ids
// are row-major, so node 0 is the top-left corner and node W*H-1 the
// bottom-right one. Construct it with NewMesh.
type Mesh struct {
	width, height int
}

// NewMesh returns the w×h mesh. It panics if either dimension is below 1:
// mesh construction is configuration-time and a bad dimension is a
// programming error, not a runtime condition.
func NewMesh(w, h int) *Mesh {
	if w < 1 || h < 1 {
		panic(fmt.Sprintf("topo: invalid mesh dimensions %dx%d", w, h))
	}
	return &Mesh{width: w, height: h}
}

// FromMesh returns m. It is kept only for bench/nocbench.
func FromMesh(m *Mesh) *Mesh { return m }

// Mesh returns t. It is kept only for bench/nocbench.
func (t *Mesh) Mesh() *Mesh { return t }

// Width returns the mesh width (number of columns).
func (t *Mesh) Width() int { return t.width }

// Height returns the mesh height (number of rows).
func (t *Mesh) Height() int { return t.height }

// ID returns the row-major node identifier of c. It panics if c lies outside
// the mesh.
func (t *Mesh) ID(c Coord) int {
	if !t.Contains(c) {
		panic(fmt.Sprintf("topo: coordinate %v outside %dx%d mesh", c, t.width, t.height))
	}
	return c.Y*t.width + c.X
}

// Coord returns the coordinate of node id. It panics if id is out of range.
func (t *Mesh) Coord(id int) Coord {
	if id < 0 || id >= t.width*t.height {
		panic(fmt.Sprintf("topo: node %d outside %dx%d mesh", id, t.width, t.height))
	}
	return Coord{X: id % t.width, Y: id / t.width}
}

// Contains reports whether c lies inside the mesh.
func (t *Mesh) Contains(c Coord) bool {
	return c.X >= 0 && c.X < t.width && c.Y >= 0 && c.Y < t.height
}

// Neighbors returns the neighbours of id in North, East, South, West order,
// omitting the edges of the mesh.
func (t *Mesh) Neighbors(id int) []int {
	out := make([]int, 0, 4)
	for p := North; p <= West; p++ {
		if n := t.Neighbor(id, p); n >= 0 {
			out = append(out, n)
		}
	}
	return out
}

// HammingID returns the Hamming distance between nodes a and b.
func (t *Mesh) HammingID(a, b int) int { return t.Coord(a).Hamming(t.Coord(b)) }

// Name implements Topology.
func (t *Mesh) Name() string { return fmt.Sprintf("%dx%d mesh", t.width, t.height) }

// Nodes implements Topology.
func (t *Mesh) Nodes() int { return t.width * t.height }

// Ports implements Topology.
func (t *Mesh) Ports() int { return len(gridPortNames) }

// Neighbor implements Topology. It panics if id is out of range.
func (t *Mesh) Neighbor(id, port int) int {
	c := t.Coord(id)
	switch {
	case port == North && c.Y > 0:
		return id - t.width
	case port == East && c.X < t.width-1:
		return id + 1
	case port == South && c.Y < t.height-1:
		return id + t.width
	case port == West && c.X > 0:
		return id - 1
	}
	return -1
}

// Opposite implements Topology.
func (t *Mesh) Opposite(port int) int { return gridOpposite(port) }

// PortName implements Topology.
func (t *Mesh) PortName(port int) string { return gridPortName(port) }

// Label implements Topology.
func (t *Mesh) Label(id int) string { return t.Coord(id).String() }

// PortTo implements Topology.
func (t *Mesh) PortTo(a, b int) int { return portTo(t, a, b) }

// Links implements Topology: each mesh link once, via the East and South
// port of its lower-ID end.
func (t *Mesh) Links() [][2]int { return gridLinks(t) }

var _ Topology = (*Mesh)(nil)
