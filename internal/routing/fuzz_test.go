package routing

import (
	"testing"

	"nocsprint/internal/sprint"
	"nocsprint/internal/topo"
)

// fuzzMod maps an arbitrary fuzz-provided int into [0, n).
func fuzzMod(v, n int) int {
	v %= n
	if v < 0 {
		v += n
	}
	return v
}

// FuzzCDORNextPort drives CDOR with arbitrary mesh shapes, master
// placements, sprint levels, metrics, and endpoint pairs. The invariants are
// the paper's Algorithm 2 guarantees, which the exhaustive property tests in
// this package establish for every mesh up to 8×8: construction never
// panics, dark endpoints error cleanly, and every in-region pair routes to
// its destination through active nodes only, without revisiting a node.
func FuzzCDORNextPort(f *testing.F) {
	f.Add(4, 4, 0, 8, 0, 5)
	f.Add(8, 8, 0, 16, 2, 9)
	f.Add(3, 5, 7, 6, 0, 1)
	f.Add(1, 1, 0, 1, 0, 0)
	f.Add(6, 2, 11, 4, -3, 100)
	f.Fuzz(func(t *testing.T, w, h, master, level, src, dst int) {
		w, h = 1+fuzzMod(w, 8), 1+fuzzMod(h, 8)
		m := topo.NewMesh(w, h)
		n := m.Nodes()
		master = fuzzMod(master, n)
		lvl := 1 + fuzzMod(level, n)
		src, dst = fuzzMod(src, n), fuzzMod(dst, n)
		metric := sprint.Euclidean
		if fuzzMod(level, 2) == 1 {
			metric = sprint.Hamming
		}
		region := sprint.NewRegion(m, master, lvl, metric)
		alg := NewCDOR(region)

		d, err := alg.NextPort(src, dst)
		if !region.Active(src) || !region.Active(dst) {
			if err == nil {
				t.Fatalf("%dx%d master %d level %d: NextPort(%d,%d) did not reject a dark endpoint",
					w, h, master, lvl, src, dst)
			}
			return
		}
		if err != nil {
			t.Fatalf("%dx%d master %d level %d: NextPort(%d,%d): %v", w, h, master, lvl, src, dst, err)
		}
		if src == dst {
			if d != topo.Local {
				t.Fatalf("NextPort(%d,%d) = %v, want Local", src, dst, d)
			}
		} else {
			next := m.Neighbor(src, d)
			if next < 0 {
				t.Fatalf("NextPort(%d,%d) = %v routes off-mesh", src, dst, d)
			}
			if !region.Active(next) {
				t.Fatalf("NextPort(%d,%d) = %v routes into dark node %d", src, dst, d, next)
			}
		}

		path, err := Path(m, alg, src, dst)
		if err != nil {
			t.Fatalf("%dx%d master %d level %d: Path(%d,%d): %v", w, h, master, lvl, src, dst, err)
		}
		seen := make(map[int]bool, len(path))
		for _, id := range path {
			if !region.Active(id) {
				t.Fatalf("path %v leaves the active region at node %d", path, id)
			}
			if seen[id] {
				t.Fatalf("path %v revisits node %d", path, id)
			}
			seen[id] = true
		}
	})
}

// FuzzTopoNextPort drives the topology-generic routers — mesh DOR, torus
// DOR, and ring-circulant — with arbitrary topology parameters and endpoint
// pairs. Invariants for every constructible instance: NextPort stays inside
// the port space and never routes off-topology, self-traffic ejects, Path
// terminates without revisiting a node, and VC policies return classes in
// range with class 0 for self-traffic.
func FuzzTopoNextPort(f *testing.F) {
	f.Add(0, 4, 4, 0, 15, 0)
	f.Add(1, 4, 4, 3, 12, 0)
	f.Add(1, 2, 8, 0, 9, 0)
	f.Add(2, 16, 4, 1, 9, 0)
	f.Add(2, 13, 5, 12, 6, 3)
	f.Add(2, 64, 8, 0, 33, 0)
	f.Fuzz(func(t *testing.T, kind, a, b, src, dst, extra int) {
		var tp topo.Topology
		var alg Algorithm
		switch fuzzMod(kind, 3) {
		case 0:
			tp = topo.NewMesh(1+fuzzMod(a, 8), 1+fuzzMod(b, 8))
			alg = NewDOR(tp.(*topo.Mesh).Mesh())
		case 1:
			tr, err := topo.NewTorus(2+fuzzMod(a, 7), 2+fuzzMod(b, 7))
			if err != nil {
				t.Fatalf("in-range torus rejected: %v", err)
			}
			tp, alg = tr, NewTorusDOR(tr)
		default:
			n := 5 + fuzzMod(a, 60)
			s2 := 2 + fuzzMod(b, n)
			c, err := topo.NewCirculant(n, 1, s2)
			if err != nil {
				return // degenerate stride combination, rejected by design
			}
			r, err := NewRingCirculant(c)
			if err != nil {
				t.Fatalf("NewRingCirculant(%s): %v", c.Name(), err)
			}
			tp, alg = c, r
		}
		n := tp.Nodes()
		src, dst = fuzzMod(src, n), fuzzMod(dst, n)

		p, err := alg.NextPort(src, dst)
		if err != nil {
			t.Fatalf("%s: NextPort(%d,%d): %v", tp.Name(), src, dst, err)
		}
		if p < 0 || p >= tp.Ports() {
			t.Fatalf("%s: NextPort(%d,%d) = %d outside port space", tp.Name(), src, dst, p)
		}
		if src == dst {
			if p != topo.Local {
				t.Fatalf("%s: NextPort(%d,%d) = %d, want Local", tp.Name(), src, dst, p)
			}
		} else if tp.Neighbor(src, p) < 0 {
			t.Fatalf("%s: NextPort(%d,%d) = %d routes off-topology", tp.Name(), src, dst, p)
		}

		if vcp, ok := alg.(VCPolicy); ok {
			if vcp.VCClasses() < 1 {
				t.Fatalf("%s: VCClasses() = %d", tp.Name(), vcp.VCClasses())
			}
			cls := vcp.VCClass(src, dst)
			if cls < 0 || cls >= vcp.VCClasses() {
				t.Fatalf("%s: VCClass(%d,%d) = %d outside [0,%d)", tp.Name(), src, dst, cls, vcp.VCClasses())
			}
			if src == dst && cls != 0 {
				t.Fatalf("%s: VCClass(%d,%d) = %d, want 0 for self-traffic", tp.Name(), src, dst, cls)
			}
		}

		path, err := Path(tp, alg, src, dst)
		if err != nil {
			t.Fatalf("%s: Path(%d,%d): %v", tp.Name(), src, dst, err)
		}
		if path[0] != src || path[len(path)-1] != dst {
			t.Fatalf("%s: Path(%d,%d) = %v has wrong endpoints", tp.Name(), src, dst, path)
		}
		seen := make(map[int]bool, len(path))
		for _, id := range path {
			if seen[id] {
				t.Fatalf("%s: path %v revisits node %d", tp.Name(), path, id)
			}
			seen[id] = true
		}
		_ = extra
	})
}
