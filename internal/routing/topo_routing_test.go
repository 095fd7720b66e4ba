package routing

import (
	"testing"

	"nocsprint/internal/topo"
)

// ringDist is the shortest distance between c and t on an n-ring.
func ringDist(c, t, n int) int {
	d := t - c
	if d < 0 {
		d += n
	}
	if e := n - d; e < d {
		return e
	}
	return d
}

// TestTorusDORReachabilityAndMinimal checks that torus DOR reaches every
// destination on several torus shapes and that every path has exactly the
// minimal length (shortest way around each ring).
func TestTorusDORReachabilityAndMinimal(t *testing.T) {
	for _, dims := range [][2]int{{4, 4}, {2, 3}, {5, 4}, {3, 3}, {2, 2}} {
		tr, err := topo.NewTorus(dims[0], dims[1])
		if err != nil {
			t.Fatal(err)
		}
		alg := NewTorusDOR(tr)
		w, h := tr.Width(), tr.Height()
		for src := 0; src < tr.Nodes(); src++ {
			for dst := 0; dst < tr.Nodes(); dst++ {
				path, err := Path(tr, alg, src, dst)
				if err != nil {
					t.Fatalf("%s: Path(%d,%d): %v", tr.Name(), src, dst, err)
				}
				want := ringDist(src%w, dst%w, w) + ringDist(src/w, dst/w, h)
				if len(path)-1 != want {
					t.Fatalf("%s: Path(%d,%d) = %v has %d hops, minimal is %d",
						tr.Name(), src, dst, path, len(path)-1, want)
				}
			}
		}
	}
}

// TestTorusDORDeadlockFreeWithDatelines verifies the dateline VC scheme: the
// class-split channel-dependency graph is acyclic on every tested torus,
// while collapsing the classes away (a single-VC-class network) leaves the
// ring cycles in place on any torus whose rings take multi-hop routes. The
// pair of checks shows the 2-class split is exactly what buys deadlock
// freedom.
func TestTorusDORDeadlockFreeWithDatelines(t *testing.T) {
	for _, dims := range [][2]int{{4, 4}, {5, 4}, {3, 3}, {2, 3}} {
		tr, err := topo.NewTorus(dims[0], dims[1])
		if err != nil {
			t.Fatal(err)
		}
		g, err := BuildDependencyGraph(tr, NewTorusDOR(tr), nil)
		if err != nil {
			t.Fatal(err)
		}
		if g.HasCycle() {
			t.Fatalf("%s: dateline CDG has a cycle", tr.Name())
		}
		if len(g.adj) == 0 {
			t.Fatalf("%s: CDG empty", tr.Name())
		}
	}
	// Rings of size >= 4 route consecutive same-direction hops, so erasing
	// the class split must expose the classic ring cycle.
	for _, dims := range [][2]int{{4, 4}, {5, 4}} {
		tr, err := topo.NewTorus(dims[0], dims[1])
		if err != nil {
			t.Fatal(err)
		}
		g, err := BuildDependencyGraph(tr, NewTorusDOR(tr), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !g.CollapseClasses().HasCycle() {
			t.Fatalf("%s: collapsing VC classes should expose the ring cycle", tr.Name())
		}
	}
}

// TestRingCirculantReachabilityAndGreedyBound checks greedy chord-then-ring
// routing on several circulants: every pair is reached, and each path has
// exactly floor(d/s2) + d mod s2 hops for the chosen rotation distance d —
// the greedy optimum for routing with strides {1, s2} in one direction.
func TestRingCirculantReachabilityAndGreedyBound(t *testing.T) {
	for _, spec := range [][3]int{{16, 1, 4}, {13, 1, 5}, {11, 1, 3}, {5, 1, 2}} {
		c, err := topo.NewCirculant(spec[0], spec[1], spec[2])
		if err != nil {
			t.Fatal(err)
		}
		alg, err := NewRingCirculant(c)
		if err != nil {
			t.Fatal(err)
		}
		n, s2 := c.N(), c.S2()
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				path, err := Path(c, alg, src, dst)
				if err != nil {
					t.Fatalf("%s: Path(%d,%d): %v", c.Name(), src, dst, err)
				}
				// Distance in the rotation direction the router picks:
				// clockwise iff 2*((dst-src) mod n) <= n.
				d := dst - src
				if d < 0 {
					d += n
				}
				if 2*d > n {
					d = n - d
				}
				want := d/s2 + d%s2
				if len(path)-1 != want {
					t.Fatalf("%s: Path(%d,%d) = %v has %d hops, greedy bound is %d",
						c.Name(), src, dst, path, len(path)-1, want)
				}
			}
		}
	}
}

// TestRingCirculantDeadlockFreeEscapeVCs is the deadlock-freedom property
// test for the circulant router's 2-VC dateline scheme: the class-split CDG
// is acyclic for every tested circulant, and collapsing the classes exposes
// the ring cycle the scheme exists to break.
func TestRingCirculantDeadlockFreeEscapeVCs(t *testing.T) {
	for _, spec := range [][3]int{{16, 1, 4}, {13, 1, 5}, {11, 1, 3}, {9, 1, 4}} {
		c, err := topo.NewCirculant(spec[0], spec[1], spec[2])
		if err != nil {
			t.Fatal(err)
		}
		alg, err := NewRingCirculant(c)
		if err != nil {
			t.Fatal(err)
		}
		g, err := BuildDependencyGraph(c, alg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if g.HasCycle() {
			t.Fatalf("%s: dateline CDG has a cycle", c.Name())
		}
		if collapsed := g.CollapseClasses(); !collapsed.HasCycle() {
			t.Fatalf("%s: collapsing VC classes should expose the ring cycle", c.Name())
		}
	}
}

// TestVCClassMonotonePerRing checks the dateline invariant directly: along
// every routed path the VC class never transitions 1 -> 0 within one ring.
// On the circulant the whole path lives on one ring, so the class is
// globally monotone; on the torus each dimension phase has its own dateline,
// so monotonicity holds per phase (the X -> Y phase switch may reset it, and
// dimension order supplies the inter-ring ordering instead).
func TestVCClassMonotonePerRing(t *testing.T) {
	c, err := topo.NewCirculant(13, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	ralg, err := NewRingCirculant(c)
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < c.Nodes(); src++ {
		for dst := 0; dst < c.Nodes(); dst++ {
			path, err := Path(c, ralg, src, dst)
			if err != nil {
				t.Fatal(err)
			}
			prev := -1
			for _, id := range path[:len(path)-1] {
				cls := ralg.VCClass(id, dst)
				if prev == 1 && cls == 0 {
					t.Fatalf("%s: path %v re-enters class 0 at node %d", c.Name(), path, id)
				}
				prev = cls
			}
		}
	}

	tr, err := topo.NewTorus(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	alg := NewTorusDOR(tr)
	w := tr.Width()
	for src := 0; src < tr.Nodes(); src++ {
		for dst := 0; dst < tr.Nodes(); dst++ {
			path, err := Path(tr, alg, src, dst)
			if err != nil {
				t.Fatal(err)
			}
			prev, prevPhaseX := -1, true
			for i, id := range path[:len(path)-1] {
				phaseX := path[i+1]%w != id%w // this hop moves on the X ring
				cls := alg.VCClass(id, dst)
				if phaseX == prevPhaseX && prev == 1 && cls == 0 {
					t.Fatalf("%s: path %v re-enters class 0 at node %d within one ring",
						tr.Name(), path, id)
				}
				prev, prevPhaseX = cls, phaseX
			}
		}
	}
}

// TestTopoRouterErrors pins the out-of-range behaviour of the new routers
// and the s1 != 1 rejection of the ring-circulant constructor.
func TestTopoRouterErrors(t *testing.T) {
	tr, err := topo.NewTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	ta := NewTorusDOR(tr)
	if _, err := ta.NextPort(-1, 0); err == nil {
		t.Error("torus DOR accepted negative source")
	}
	if _, err := ta.NextPort(0, 16); err == nil {
		t.Error("torus DOR accepted out-of-range destination")
	}
	if ta.Name() == "" {
		t.Error("torus DOR has no name")
	}

	c, err := topo.NewCirculant(16, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRingCirculant(c); err == nil {
		t.Error("ring-circulant routing accepted s1 != 1")
	}
	c, err = topo.NewCirculant(16, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := NewRingCirculant(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ra.NextPort(16, 0); err == nil {
		t.Error("ring-circulant routing accepted out-of-range source")
	}
	if ra.Name() == "" {
		t.Error("ring-circulant routing has no name")
	}
}
