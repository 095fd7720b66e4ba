package routing

import (
	"fmt"

	"nocsprint/internal/topo"
)

// channel identifies one directed physical link — the output port of one
// router — within one VC class. Injection/ejection (Local) channels cannot
// participate in cyclic dependencies and are excluded, per standard
// channel-dependency analysis. For algorithms without a VCPolicy the class
// is always 0 and the graph reduces to the classic link-level CDG; for
// dateline algorithms (torus, ring circulant) the class split is exactly
// what breaks the ring cycles, so the analysis must see it.
type channel struct {
	node, port, class int
}

// DependencyGraph is the channel-dependency graph (CDG) induced by a routing
// function over a set of routable nodes: there is an edge c1 -> c2 whenever
// some routed packet can hold c1 while requesting c2.
type DependencyGraph struct {
	adj map[channel]map[channel]bool
}

// BuildDependencyGraph routes every (src,dst) pair among routable under alg
// on topology t and records every consecutive channel pair along each path.
// When alg implements VCPolicy, channels are split by VC class, matching
// the simulator's restricted VC allocation.
func BuildDependencyGraph(t topo.Topology, alg Algorithm, routable []int) (*DependencyGraph, error) {
	if routable == nil {
		routable = topo.AllNodes(t.Nodes())
	}
	vcp, _ := alg.(VCPolicy)
	classOf := func(cur, dst int) int {
		if vcp == nil {
			return 0
		}
		return vcp.VCClass(cur, dst)
	}
	g := &DependencyGraph{adj: make(map[channel]map[channel]bool)}
	for _, src := range routable {
		for _, dst := range routable {
			if src == dst {
				continue
			}
			path, err := Path(t, alg, src, dst)
			if err != nil {
				return nil, fmt.Errorf("routing: CDG build: %w", err)
			}
			for i := 0; i+2 < len(path); i++ {
				p1, err := alg.NextPort(path[i], dst)
				if err != nil {
					return nil, fmt.Errorf("routing: CDG build: %w", err)
				}
				p2, err := alg.NextPort(path[i+1], dst)
				if err != nil {
					return nil, fmt.Errorf("routing: CDG build: %w", err)
				}
				c1 := channel{path[i], p1, classOf(path[i], dst)}
				c2 := channel{path[i+1], p2, classOf(path[i+1], dst)}
				if g.adj[c1] == nil {
					g.adj[c1] = make(map[channel]bool)
				}
				g.adj[c1][c2] = true
			}
		}
	}
	return g, nil
}

// HasCycle reports whether the CDG contains a directed cycle. An acyclic
// CDG proves the routing function deadlock-free (Dally & Seitz).
func (g *DependencyGraph) HasCycle() bool {
	const (
		white = 0 // unvisited
		grey  = 1 // on the current DFS stack
		black = 2 // fully explored
	)
	color := make(map[channel]int, len(g.adj))
	var visit func(c channel) bool
	visit = func(c channel) bool {
		color[c] = grey
		for next := range g.adj[c] {
			switch color[next] {
			case grey:
				return true
			case white:
				if visit(next) {
					return true
				}
			}
		}
		color[c] = black
		return false
	}
	for c := range g.adj {
		if color[c] == white && visit(c) {
			return true
		}
	}
	return false
}
