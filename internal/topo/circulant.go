package topo

import "fmt"

// Circulant ports. Every node i of C(n; s1, s2) links to i±s1 and i±s2
// (mod n), giving the same degree-4 port space as the mesh: Local plus four
// links.
const (
	PortPlusS1  = 1 // clockwise short stride (+s1)
	PortMinusS1 = 2 // counter-clockwise short stride (-s1)
	PortPlusS2  = 3 // clockwise long stride (+s2)
	PortMinusS2 = 4 // counter-clockwise long stride (-s2)
)

// Circulant is the ring-circulant graph C(n; s1, s2): n nodes on a ring,
// each linked to its neighbors at distances s1 and s2 in both directions.
// With s1 = 1 this is the classic "ring with chords" NoC studied by Romanov
// as a cheap mesh alternative: uniform degree 4, no edge effects, and a
// diameter of roughly n/(2*s2) + s2/2 hops.
type Circulant struct {
	n, s1, s2 int
}

// NewCirculant returns C(n; s1, s2). The strides must satisfy
// 0 < s1 < s2 < n, the four link offsets {±s1, ±s2} must be pairwise
// distinct modulo n (so every router has true degree 4), and
// gcd(n, s1, s2) must be 1 (so the graph is connected).
func NewCirculant(n, s1, s2 int) (*Circulant, error) {
	if n < 5 || s1 < 1 || s2 <= s1 || s2 >= n {
		return nil, fmt.Errorf("topo: invalid circulant C(%d;%d,%d): need n >= 5 and 0 < s1 < s2 < n", n, s1, s2)
	}
	// Degree must be a true 4: ±s1 and ±s2 pairwise distinct mod n.
	if 2*s1%n == 0 || 2*s2%n == 0 || (s1+s2)%n == 0 {
		return nil, fmt.Errorf("topo: degenerate circulant C(%d;%d,%d): stride offsets coincide modulo n", n, s1, s2)
	}
	if gcd(n, gcd(s1, s2)) != 1 {
		return nil, fmt.Errorf("topo: disconnected circulant C(%d;%d,%d): gcd(n,s1,s2) != 1", n, s1, s2)
	}
	return &Circulant{n: n, s1: s1, s2: s2}, nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// N returns the node count.
func (c *Circulant) N() int { return c.n }

// S1 returns the short stride.
func (c *Circulant) S1() int { return c.s1 }

// S2 returns the long stride.
func (c *Circulant) S2() int { return c.s2 }

// Name implements Topology.
func (c *Circulant) Name() string { return fmt.Sprintf("C(%d;%d,%d)", c.n, c.s1, c.s2) }

// Nodes implements Topology.
func (c *Circulant) Nodes() int { return c.n }

// Ports implements Topology.
func (c *Circulant) Ports() int { return 5 }

// Neighbor implements Topology.
func (c *Circulant) Neighbor(id, port int) int {
	switch port {
	case PortPlusS1:
		return (id + c.s1) % c.n
	case PortMinusS1:
		return (id - c.s1 + c.n) % c.n
	case PortPlusS2:
		return (id + c.s2) % c.n
	case PortMinusS2:
		return (id - c.s2 + c.n) % c.n
	default:
		return -1
	}
}

// Opposite implements Topology.
func (c *Circulant) Opposite(port int) int {
	switch port {
	case PortPlusS1:
		return PortMinusS1
	case PortMinusS1:
		return PortPlusS1
	case PortPlusS2:
		return PortMinusS2
	case PortMinusS2:
		return PortPlusS2
	default:
		return Local
	}
}

// PortName implements Topology.
func (c *Circulant) PortName(port int) string {
	switch port {
	case Local:
		return "Local"
	case PortPlusS1:
		return fmt.Sprintf("+%d", c.s1)
	case PortMinusS1:
		return fmt.Sprintf("-%d", c.s1)
	case PortPlusS2:
		return fmt.Sprintf("+%d", c.s2)
	case PortMinusS2:
		return fmt.Sprintf("-%d", c.s2)
	default:
		return fmt.Sprintf("Port(%d)", port)
	}
}

// Label implements Topology.
func (c *Circulant) Label(id int) string { return fmt.Sprintf("n%d", id) }

// PortTo implements Topology.
func (c *Circulant) PortTo(a, b int) int { return portTo(c, a, b) }

// Links implements Topology: every node's +s1 and +s2 link, enumerating
// each undirected link once.
func (c *Circulant) Links() [][2]int {
	out := make([][2]int, 0, 2*c.n)
	for id := 0; id < c.n; id++ {
		out = append(out,
			[2]int{id, c.Neighbor(id, PortPlusS1)},
			[2]int{id, c.Neighbor(id, PortPlusS2)})
	}
	return out
}

var _ Topology = (*Circulant)(nil)
