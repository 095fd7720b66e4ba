// Package sprint implements the topological side of fine-grained sprinting:
// Algorithm 1 of the paper (the activation order that grows a convex region
// of routers around the master node) and the Region type that captures which
// routers/links are powered during a sprint at a given level.
package sprint

import (
	"fmt"

	"nocsprint/internal/topo"
)

// Metric selects the distance metric used to order node activation.
// The paper argues for Euclidean distance (§3.2): Hamming distance minimises
// the new node's distance to the master but produces longer inter-node paths
// (its 4-core example picks node 2 instead of the better node 5).
type Metric int

// Supported activation-ordering metrics.
const (
	// Euclidean orders nodes by squared Euclidean distance to the master
	// (the paper's choice, Algorithm 1).
	Euclidean Metric = iota
	// Hamming orders nodes by Manhattan distance to the master (the
	// baseline Algorithm 1 argues against).
	Hamming
)

func (m Metric) String() string {
	switch m {
	case Euclidean:
		return "euclidean"
	case Hamming:
		return "hamming"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// ActivationOrder implements Algorithm 1: it returns all node ids of m
// sorted by ascending distance from the master node, ties broken by node
// index. The first element is always the master itself. The returned slice
// has length m.Nodes().
func ActivationOrder(m *topo.Mesh, master int, metric Metric) []int {
	return ActivationOrderOver(m, master, metric, allAlive)
}

// allAlive is the survivor predicate of a fault-free mesh.
func allAlive(int) bool { return true }

// Region is the set of active nodes during a sprint: the first Level nodes
// of the activation order. A Region also knows, for every node, whether its
// four mesh neighbours are active — the per-router connectivity bits CDOR
// consumes (the paper's Cw and Ce, plus Cn and Cs for completeness).
type Region struct {
	mesh   *topo.Mesh
	master int
	level  int
	order  []int
	active []bool
}

// NewRegion returns the sprint region at the given level (number of active
// cores, 1..m.Nodes()) grown from master with the given metric. It panics on
// an out-of-range level or master; both are configuration-time values.
func NewRegion(m *topo.Mesh, master, level int, metric Metric) *Region {
	r, err := NewRegionOver(m, master, level, metric, allAlive)
	if err != nil {
		panic(err.Error())
	}
	return r
}

// Mesh returns the underlying mesh.
func (r *Region) Mesh() *topo.Mesh { return r.mesh }

// Master returns the master node id.
func (r *Region) Master() int { return r.master }

// Level returns the number of active nodes.
func (r *Region) Level() int { return r.level }

// Active reports whether node id is powered during this sprint.
func (r *Region) Active(id int) bool { return r.active[id] }

// ActiveNodes returns the ids of the active nodes in activation order.
func (r *Region) ActiveNodes() []int { return append([]int(nil), r.order[:r.level]...) }

// Connected reports whether the neighbour of id through mesh port exists and
// is active — i.e. whether the link from id through port is powered. This
// is the generalised connectivity bit; Cw and Ce from the paper are
// Connected(id, topo.West) and Connected(id, topo.East).
func (r *Region) Connected(id, port int) bool {
	n := r.mesh.Neighbor(id, port)
	return n >= 0 && r.active[n]
}

// ConnectivityBits returns the paper's two per-router bits (Cw, Ce) for node
// id: whether its west and east neighbours are connected.
func (r *Region) ConnectivityBits(id int) (cw, ce bool) {
	return r.Connected(id, topo.West), r.Connected(id, topo.East)
}

// IsConvex reports whether the active set is convex in the Euclidean sense
// used by the paper: for every pair of active nodes, every mesh node whose
// centre lies on the segment joining them is also active. (For integer grid
// points, the nodes on the segment are exactly the lattice points it
// passes through.)
func (r *Region) IsConvex() bool {
	nodes := r.order[:r.level]
	for _, a := range nodes {
		for _, b := range nodes {
			ca, cb := r.mesh.Coord(a), r.mesh.Coord(b)
			for _, p := range latticePointsOnSegment(ca, cb) {
				if !r.active[r.mesh.ID(p)] {
					return false
				}
			}
		}
	}
	return true
}

// latticePointsOnSegment returns the integer grid points lying exactly on
// the closed segment from a to b.
func latticePointsOnSegment(a, b topo.Coord) []topo.Coord {
	dx, dy := b.X-a.X, b.Y-a.Y
	if dx == 0 && dy == 0 {
		return []topo.Coord{a}
	}
	g := gcd(abs(dx), abs(dy))
	sx, sy := dx/g, dy/g
	pts := make([]topo.Coord, 0, g+1)
	for i := 0; i <= g; i++ {
		pts = append(pts, topo.Coord{X: a.X + i*sx, Y: a.Y + i*sy})
	}
	return pts
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
