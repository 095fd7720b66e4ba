// Package routing implements the routing algorithms of the paper: classic
// dimension-order (X-Y) routing for full meshes, and CDOR — Convex
// Dimension-Order Routing (Algorithm 2) — which routes inside the convex
// active region produced by topological sprinting using two connectivity
// bits per router. Algorithms are topology-generic: they speak the port
// space of internal/topo, so the same interface also carries the torus and
// ring-circulant routers. The package also provides a
// channel-dependency-graph deadlock checker used to validate deadlock
// freedom.
package routing

import (
	"fmt"

	"nocsprint/internal/sprint"
	"nocsprint/internal/topo"
)

// Algorithm decides, at each router, the output port for a packet. Ports
// are topology port indices (see internal/topo): topo.Local (0) ejects, and
// ports 1..Ports()-1 are network links. Mesh and torus algorithms use
// topo.North, East, South and West.
type Algorithm interface {
	// NextPort returns the output port a packet destined to dst takes at
	// router cur. It returns topo.Local when cur == dst. It returns an
	// error if the pair is not routable (e.g. a dark node under CDOR).
	NextPort(cur, dst int) (int, error)
	// Name identifies the algorithm in reports.
	Name() string
}

// VCPolicy is implemented by algorithms that are only deadlock-free when
// the virtual channels of each message class are partitioned into classes —
// the dateline scheme rings and tori need. The simulator consults the
// policy during VC allocation: a packet at cur headed to dst may only
// acquire output VCs of class VCClass(cur, dst). Algorithms that are
// deadlock-free on a single class (mesh DOR/CDOR) simply do not implement
// the interface.
type VCPolicy interface {
	// VCClasses returns the number of VC classes the policy needs (>= 1).
	VCClasses() int
	// VCClass returns the class of the channel a packet at cur takes
	// toward dst, in [0, VCClasses()). It must return 0 when cur == dst.
	VCClass(cur, dst int) int
}

// DOR is conventional X-Y dimension-order routing on a full mesh: packets
// first travel along X to the destination column, then along Y.
type DOR struct {
	m *topo.Mesh
}

// NewDOR returns X-Y routing for m.
func NewDOR(m *topo.Mesh) *DOR { return &DOR{m: m} }

// Name implements Algorithm.
func (d *DOR) Name() string { return "DOR" }

// NextPort implements Algorithm.
func (d *DOR) NextPort(cur, dst int) (int, error) {
	c, t := d.m.Coord(cur), d.m.Coord(dst)
	switch {
	case t.X > c.X:
		return topo.East, nil
	case t.X < c.X:
		return topo.West, nil
	case t.Y > c.Y:
		return topo.South, nil
	case t.Y < c.Y:
		return topo.North, nil
	default:
		return topo.Local, nil
	}
}

// CDOR is the paper's Algorithm 2: X-Y routing over the convex sprint
// region. Each router holds two connectivity bits, Cw and Ce, indicating
// whether its west/east neighbour is powered. A packet needing a horizontal
// hop through an unpowered link instead escapes one hop toward the master
// row (North for the paper's top-left master); convexity of the region
// guarantees the escape stays in-region and that the horizontal link becomes
// available within a bounded number of escapes.
//
// The NE turn this introduces cannot close a dependency cycle: an NE turn at
// router r implies the east output of r's southern neighbour is unpowered,
// so the WN turn that would complete the cycle cannot occur (§3.2). The
// Deadlock checker in this package verifies the claim exhaustively.
type CDOR struct {
	region *sprint.Region
	// masterY is the master's row; blocked horizontal moves escape one hop
	// vertically toward this row, where the region is widest.
	masterY int
}

// NewCDOR returns CDOR over the given sprint region. The paper places the
// master in the top-left corner (escapes go North); this implementation
// generalises the escape to "toward the master row", which also covers the
// paper's alternative master placements (§3.2: chip centre, OS core, or
// MC-adjacent node). Deadlock freedom is verified per region by the
// channel-dependency checker in this package; the paper's turn-model
// argument covers corner masters directly.
func NewCDOR(r *sprint.Region) *CDOR {
	return &CDOR{region: r, masterY: r.Mesh().Coord(r.Master()).Y}
}

// Name implements Algorithm.
func (c *CDOR) Name() string { return fmt.Sprintf("CDOR(level=%d)", c.region.Level()) }

// NextPort implements Algorithm. Both cur and dst must be active nodes.
func (c *CDOR) NextPort(cur, dst int) (int, error) {
	if !c.region.Active(cur) {
		return topo.Local, fmt.Errorf("routing: CDOR at dark node %d", cur)
	}
	if !c.region.Active(dst) {
		return topo.Local, fmt.Errorf("routing: CDOR destination %d is dark", dst)
	}
	m := c.region.Mesh()
	cc, tc := m.Coord(cur), m.Coord(dst)
	switch {
	case tc.X > cc.X:
		if c.region.Connected(cur, topo.East) {
			return topo.East, nil
		}
		return c.escapePort(cur)
	case tc.X < cc.X:
		if c.region.Connected(cur, topo.West) {
			return topo.West, nil
		}
		return c.escapePort(cur)
	case tc.Y > cc.Y:
		return topo.South, nil
	case tc.Y < cc.Y:
		return topo.North, nil
	default:
		return topo.Local, nil
	}
}

func (c *CDOR) escapePort(cur int) (int, error) {
	cc := c.region.Mesh().Coord(cur)
	escape := topo.North
	if cc.Y < c.masterY {
		escape = topo.South
	} else if cc.Y == c.masterY {
		return topo.Local, fmt.Errorf("routing: CDOR stuck at node %d: horizontal link dark on the master row", cur)
	}
	if c.region.Connected(cur, escape) {
		return int(escape), nil
	}
	return topo.Local, fmt.Errorf("routing: CDOR stuck at node %d: horizontal link dark and no %v escape", cur, escape)
}

// Path returns the node sequence (inclusive of endpoints) a packet follows
// from src to dst under alg on topology t. It errors if the route does not
// terminate within nodes*4 hops, which would indicate a routing livelock.
func Path(t topo.Topology, alg Algorithm, src, dst int) ([]int, error) {
	path := []int{src}
	cur := src
	maxHops := t.Nodes() * 4
	for cur != dst {
		p, err := alg.NextPort(cur, dst)
		if err != nil {
			return nil, err
		}
		if p == topo.Local {
			return nil, fmt.Errorf("routing: %s ejects at %d before reaching %d", alg.Name(), cur, dst)
		}
		next := t.Neighbor(cur, p)
		if next < 0 {
			return nil, fmt.Errorf("routing: %s routes off-topology at %d through port %s", alg.Name(), cur, t.PortName(p))
		}
		cur = next
		path = append(path, cur)
		if len(path) > maxHops {
			return nil, fmt.Errorf("routing: %s livelock from %d to %d", alg.Name(), src, dst)
		}
	}
	return path, nil
}

var _ Algorithm = (*DOR)(nil)
var _ Algorithm = (*CDOR)(nil)
