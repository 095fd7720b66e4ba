package routing

import (
	"nocsprint/internal/topo"
)

// Test-only views of the channel-dependency graph and of the turns a
// routing function takes.

// CollapseClasses returns a copy of the graph with the VC-class split
// erased: channels that differ only by class merge into one. For a
// dateline algorithm this is the CDG the network would have on a single VC
// class — cyclic on any wrapping ring — so comparing HasCycle before and
// after collapsing demonstrates the class split is what buys deadlock
// freedom.
func (g *DependencyGraph) CollapseClasses() *DependencyGraph {
	flat := func(c channel) channel { return channel{node: c.node, port: c.port} }
	out := &DependencyGraph{adj: make(map[channel]map[channel]bool, len(g.adj))}
	for c, outs := range g.adj {
		fc := flat(c)
		if out.adj[fc] == nil {
			out.adj[fc] = make(map[channel]bool, len(outs))
		}
		for d := range outs {
			out.adj[fc][flat(d)] = true
		}
	}
	return out
}

// Turn classifies a pair of consecutive hop directions, e.g. "NE" for a
// packet travelling North that turns East.
type Turn struct {
	From, To int
}

// String returns the compact two-letter turn name (e.g. "NE", "WS").
func (t Turn) String() string {
	letter := func(d int) string {
		switch d {
		case topo.North:
			return "N"
		case topo.East:
			return "E"
		case topo.South:
			return "S"
		case topo.West:
			return "W"
		default:
			return "?"
		}
	}
	return letter(t.From) + letter(t.To)
}

// TurnsUsed routes every pair among routable and returns the set of turns
// (direction changes) the algorithm performs, useful for turn-model
// reasoning about deadlock freedom: e.g. plain DOR uses only {EN, ES, WN,
// WS}; CDOR adds NE but never WN-after-NE cycles. Turns are a mesh notion,
// so this helper stays mesh-specific.
func TurnsUsed(m *topo.Mesh, alg Algorithm, routable []int) (map[Turn]int, error) {
	if routable == nil {
		routable = topo.AllNodes(m.Nodes())
	}
	t := m
	turns := make(map[Turn]int)
	for _, src := range routable {
		for _, dst := range routable {
			if src == dst {
				continue
			}
			path, err := Path(t, alg, src, dst)
			if err != nil {
				return nil, err
			}
			for i := 0; i+2 < len(path); i++ {
				d1 := m.PortTo(path[i], path[i+1])
				d2 := m.PortTo(path[i+1], path[i+2])
				if d1 != d2 {
					turns[Turn{d1, d2}]++
				}
			}
		}
	}
	return turns, nil
}
