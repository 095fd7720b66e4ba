// Package mesh provides 2-D mesh network geometry: node coordinates,
// identifier mapping, neighbourhoods, and the distance metrics used by the
// NoC-sprinting activation and floorplanning algorithms.
//
// The coordinate system follows the paper: the origin is the top-left corner
// of the mesh, X grows eastward (to the right) and Y grows southward (down).
// Node identifiers are assigned in row-major order, so node 0 is the top-left
// corner and node W*H-1 is the bottom-right corner.
package mesh

import (
	"fmt"
	"math"
)

// Coord is a mesh coordinate. X grows east, Y grows south, origin top-left.
type Coord struct {
	X, Y int
}

// String returns the coordinate in "(x,y)" form.
func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// Add returns the component-wise sum of c and d.
func (c Coord) Add(d Coord) Coord { return Coord{c.X + d.X, c.Y + d.Y} }

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

// Direction identifies one of the four mesh directions or the local port.
type Direction int

// Mesh directions. Local is the network-interface port of a router.
const (
	Local Direction = iota
	North           // toward smaller Y
	East            // toward larger X
	South           // toward larger Y
	West            // toward smaller X
	numDirections
)

// NumDirections is the number of router ports (Local + 4 mesh directions).
const NumDirections = int(numDirections)

var directionNames = [...]string{"Local", "North", "East", "South", "West"}

// String returns the direction name.
func (d Direction) String() string {
	if d < 0 || int(d) >= len(directionNames) {
		return fmt.Sprintf("Direction(%d)", int(d))
	}
	return directionNames[d]
}

// Opposite returns the direction facing d. Opposite(Local) is Local.
func (d Direction) Opposite() Direction {
	switch d {
	case North:
		return South
	case South:
		return North
	case East:
		return West
	case West:
		return East
	default:
		return Local
	}
}

// Offset returns the coordinate delta of one hop in direction d.
func (d Direction) Offset() Coord {
	switch d {
	case North:
		return Coord{0, -1}
	case East:
		return Coord{1, 0}
	case South:
		return Coord{0, 1}
	case West:
		return Coord{-1, 0}
	default:
		return Coord{0, 0}
	}
}

// Mesh is a W×H 2-D mesh. The zero value is not usable; construct with New.
type Mesh struct {
	width, height int
}

// New returns a width×height mesh. It panics if either dimension is < 1;
// mesh construction is configuration-time and a bad dimension is a
// programming error, not a runtime condition.
func New(width, height int) Mesh {
	if width < 1 || height < 1 {
		panic(fmt.Sprintf("mesh: invalid dimensions %dx%d", width, height))
	}
	return Mesh{width: width, height: height}
}

// Width returns the mesh width (number of columns).
func (m Mesh) Width() int { return m.width }

// Height returns the mesh height (number of rows).
func (m Mesh) Height() int { return m.height }

// Nodes returns the total node count, width*height.
func (m Mesh) Nodes() int { return m.width * m.height }

// ID returns the row-major node identifier of c. It panics if c lies outside
// the mesh.
func (m Mesh) ID(c Coord) int {
	if !m.Contains(c) {
		panic(fmt.Sprintf("mesh: coordinate %v outside %dx%d mesh", c, m.width, m.height))
	}
	return c.Y*m.width + c.X
}

// Coord returns the coordinate of node id. It panics if id is out of range.
func (m Mesh) Coord(id int) Coord {
	if id < 0 || id >= m.Nodes() {
		panic(fmt.Sprintf("mesh: node %d outside %dx%d mesh", id, m.width, m.height))
	}
	return Coord{X: id % m.width, Y: id / m.width}
}

// Contains reports whether c lies inside the mesh.
func (m Mesh) Contains(c Coord) bool {
	return c.X >= 0 && c.X < m.width && c.Y >= 0 && c.Y < m.height
}

// Neighbor returns the node one hop from id in direction d and true, or
// -1 and false if that hop leaves the mesh (or d is Local).
func (m Mesh) Neighbor(id int, d Direction) (int, bool) {
	if d == Local {
		return -1, false
	}
	c := m.Coord(id).Add(d.Offset())
	if !m.Contains(c) {
		return -1, false
	}
	return m.ID(c), true
}

// Neighbors returns the mesh neighbours of id in North, East, South, West
// order, omitting directions that leave the mesh.
func (m Mesh) Neighbors(id int) []int {
	out := make([]int, 0, 4)
	for _, d := range [...]Direction{North, East, South, West} {
		if n, ok := m.Neighbor(id, d); ok {
			out = append(out, n)
		}
	}
	return out
}

// DirectionTo returns the direction of the single hop from node a to an
// adjacent node b. It panics if a and b are not mesh-adjacent; adjacency is
// a structural precondition in routing code.
func (m Mesh) DirectionTo(a, b int) Direction {
	ca, cb := m.Coord(a), m.Coord(b)
	switch {
	case cb.X == ca.X && cb.Y == ca.Y-1:
		return North
	case cb.X == ca.X+1 && cb.Y == ca.Y:
		return East
	case cb.X == ca.X && cb.Y == ca.Y+1:
		return South
	case cb.X == ca.X-1 && cb.Y == ca.Y:
		return West
	}
	panic(fmt.Sprintf("mesh: nodes %d%v and %d%v are not adjacent", a, ca, b, cb))
}

// HammingID returns the Hamming distance between nodes a and b.
func (m Mesh) HammingID(a, b int) int { return m.Coord(a).Hamming(m.Coord(b)) }
