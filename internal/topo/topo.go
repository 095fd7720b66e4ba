// Package topo abstracts the interconnect graph the NoC simulator runs on.
// The simulator historically assumed a 2D mesh: every buffer, credit, and
// arbiter array was statically shaped by the five mesh directions. This
// package turns the topology into an extension point — a Topology describes
// the node set, the uniform per-node port space, and the link structure, and
// the router pipeline in internal/noc sizes all of its per-port state from
// it. Three implementations ship: Mesh (the paper's 2-D mesh, which also
// carries the coordinates and distances of its algorithms), Torus
// (wraparound links), and Circulant (ring with two chord strides, after
// Romanov's ring-circulant NoC study).
package topo

// Local is the port index of every router's local (NIC) port. All
// topologies reserve port 0 for injection/ejection; ports 1..Ports()-1 are
// network links.
const Local = 0

// Topology describes one interconnect graph with a uniform per-node port
// space. Implementations must be immutable after construction.
type Topology interface {
	// Name identifies the topology instance in reports and snapshots,
	// e.g. "4x4 mesh" or "C(16;1,4)".
	Name() string
	// Nodes returns the number of routers.
	Nodes() int
	// Ports returns the uniform number of ports per router, including the
	// Local port. Every router exposes the same port space; ports without a
	// link (mesh edges) simply have no neighbor.
	Ports() int
	// Neighbor returns the router reached by leaving id through port, or -1
	// when port is Local or the port has no link (e.g. a mesh edge).
	Neighbor(id, port int) int
	// Opposite returns the port on the neighboring router that points back
	// along the same link: if b = Neighbor(a, p) then
	// Neighbor(b, Opposite(p)) == a. Opposite(Local) == Local.
	Opposite(port int) int
	// PortName returns a short human-readable port label ("east", "+s2").
	PortName(port int) string
	// Label returns a human-readable node label for rendering, e.g. the
	// mesh coordinate "(1,2)" or the ring index "n5".
	Label(id int) string
	// PortTo returns the port at a whose link leads to b, or -1 when the
	// nodes are not linked. When parallel links exist (a 2-ring), the
	// lowest such port is returned.
	PortTo(a, b int) int
	// Links enumerates every physical link once as {from, to} pairs with
	// from's port being the lower-numbered end where that is meaningful.
	// Parallel links (wraparound on a 2-wide torus) appear once each.
	Links() [][2]int
}

// AllNodes returns the identity node list [0, n): the canonical "every
// endpoint" set used by full-fabric traffic and routing tables. It is the
// shared home of the helper that was previously duplicated across packages.
func AllNodes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// portTo is PortTo for every topology: the lowest port at a whose link
// leads to b, or -1.
func portTo(t Topology, a, b int) int {
	if a < 0 || b < 0 || a >= t.Nodes() || b >= t.Nodes() {
		return -1
	}
	for p := 1; p < t.Ports(); p++ {
		if t.Neighbor(a, p) == b {
			return p
		}
	}
	return -1
}

// gridLinks is Links for the mesh and the torus: every node's East link,
// then its South link, where they exist.
func gridLinks(t Topology) [][2]int {
	out := make([][2]int, 0, 2*t.Nodes())
	for id := 0; id < t.Nodes(); id++ {
		for _, p := range [...]int{East, South} {
			if n := t.Neighbor(id, p); n >= 0 {
				out = append(out, [2]int{id, n})
			}
		}
	}
	return out
}
