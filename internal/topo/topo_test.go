package topo

import (
	"fmt"
	"reflect"
	"testing"
)

// topologies under test, table-driven: every implementation must satisfy
// the same structural contract.
func testTopologies(t *testing.T) []Topology {
	t.Helper()
	torus, err := NewTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := NewTorus(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	circ, err := NewCirculant(16, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	odd, err := NewCirculant(13, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	return []Topology{
		NewMesh(4, 4),
		NewMesh(5, 3),
		NewMesh(1, 1),
		torus,
		narrow,
		circ,
		odd,
	}
}

// TestNeighborPortRoundTrip checks, for every topology and every (node,
// port) pair: the reverse port leads back (Neighbor(b, Opposite(p)) == a),
// PortTo finds a consistent port, and Local/absent ports report -1.
func TestNeighborPortRoundTrip(t *testing.T) {
	for _, tp := range testTopologies(t) {
		tp := tp
		t.Run(tp.Name(), func(t *testing.T) {
			if tp.Ports() < 1 || tp.Nodes() < 1 {
				t.Fatalf("degenerate topology: %d nodes, %d ports", tp.Nodes(), tp.Ports())
			}
			if tp.Opposite(Local) != Local {
				t.Errorf("Opposite(Local) = %d, want Local", tp.Opposite(Local))
			}
			for id := 0; id < tp.Nodes(); id++ {
				if tp.Neighbor(id, Local) != -1 {
					t.Errorf("node %d: Local port has a neighbor", id)
				}
				if tp.Label(id) == "" {
					t.Errorf("node %d: empty label", id)
				}
				for p := 1; p < tp.Ports(); p++ {
					if tp.PortName(p) == "" {
						t.Errorf("port %d: empty name", p)
					}
					b := tp.Neighbor(id, p)
					if b == -1 {
						continue // mesh edge
					}
					if b < 0 || b >= tp.Nodes() {
						t.Fatalf("node %d port %d: neighbor %d out of range", id, p, b)
					}
					op := tp.Opposite(p)
					if op <= Local || op >= tp.Ports() {
						t.Fatalf("port %d: opposite %d out of range", p, op)
					}
					if back := tp.Neighbor(b, op); back != id {
						t.Errorf("node %d port %d -> %d, but reverse port %d leads to %d",
							id, p, b, op, back)
					}
					if tp.Opposite(op) != p {
						t.Errorf("Opposite is not an involution at port %d", p)
					}
					if got := tp.PortTo(id, b); got == -1 {
						t.Errorf("PortTo(%d,%d) = -1, but port %d links them", id, b, p)
					} else if tp.Neighbor(id, got) != b {
						t.Errorf("PortTo(%d,%d) = %d does not lead to %d", id, b, got, b)
					}
				}
			}
		})
	}
}

// TestLinksConsistent checks the link enumeration against the per-port
// neighbor map: every enumerated link is real, and the total directed
// degree equals twice the link count.
func TestLinksConsistent(t *testing.T) {
	for _, tp := range testTopologies(t) {
		tp := tp
		t.Run(tp.Name(), func(t *testing.T) {
			links := tp.Links()
			for _, l := range links {
				if tp.PortTo(l[0], l[1]) == -1 || tp.PortTo(l[1], l[0]) == -1 {
					t.Errorf("link %v not backed by ports", l)
				}
			}
			degree := 0
			for id := 0; id < tp.Nodes(); id++ {
				for p := 1; p < tp.Ports(); p++ {
					if tp.Neighbor(id, p) != -1 {
						degree++
					}
				}
			}
			if degree != 2*len(links) {
				t.Errorf("directed degree %d != 2 * %d links", degree, len(links))
			}
		})
	}
}

// gridTopologies returns a 4x3 mesh and a 4x3 torus, the two topologies
// that share the Local..West port space.
func gridTopologies(t *testing.T) (*Mesh, []Topology) {
	t.Helper()
	torus, err := NewTorus(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMesh(4, 3)
	return m, []Topology{m, torus}
}

// TestGridPortNumbering pins the mesh and torus port space the simulator's
// bit-identical results depend on: Local 0, North 1, East 2, South 3,
// West 4, and -1 from Neighbor on Local and on every port past West.
func TestGridPortNumbering(t *testing.T) {
	if Local != 0 || North != 1 || East != 2 || South != 3 || West != 4 {
		t.Fatalf("ports Local..West = %d %d %d %d %d, want 0..4", Local, North, East, South, West)
	}
	m, grids := gridTopologies(t)
	for _, tp := range grids {
		if tp.Ports() != 5 {
			t.Fatalf("%s has %d ports, want 5", tp.Name(), tp.Ports())
		}
		for id := 0; id < tp.Nodes(); id++ {
			for _, p := range []int{Local, 5, 6, 99} {
				if n := tp.Neighbor(id, p); n != -1 {
					t.Errorf("%s node %d port %d: neighbor %d, want -1", tp.Name(), id, p, n)
				}
			}
			if want := m.Coord(id).String(); tp.Label(id) != want {
				t.Errorf("%s node %d: label %q, want %q", tp.Name(), id, tp.Label(id), want)
			}
		}
	}
	if m.Name() != "4x3 mesh" || m.Width() != 4 || m.Height() != 3 || m.Nodes() != 12 {
		t.Error("mesh metadata wrong")
	}
	// Links: each node's East link, then its South link.
	want := [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}}
	if got := NewMesh(2, 2).Links(); !reflect.DeepEqual(got, want) {
		t.Errorf("2x2 mesh links %v, want %v", got, want)
	}
}

// TestGridPortNames pins the mesh and torus port names, and the
// Direction(n) name of a port outside Local..West.
func TestGridPortNames(t *testing.T) {
	_, grids := gridTopologies(t)
	names := []string{"Local", "North", "East", "South", "West"}
	for _, tp := range grids {
		for p, name := range names {
			if tp.PortName(p) != name {
				t.Errorf("%s port %d: name %q, want %q", tp.Name(), p, tp.PortName(p), name)
			}
		}
		for _, p := range []int{-1, 5, 99} {
			if want := fmt.Sprintf("Direction(%d)", p); tp.PortName(p) != want {
				t.Errorf("%s port %d: name %q, want %q", tp.Name(), p, tp.PortName(p), want)
			}
		}
	}
}

// TestGridOppositeInvolution pins each mesh and torus port's opposite,
// checks that Opposite undoes itself, and that a port outside Local..West
// maps to Local.
func TestGridOppositeInvolution(t *testing.T) {
	_, grids := gridTopologies(t)
	opposite := []int{Local, South, West, North, East}
	for _, tp := range grids {
		for p, want := range opposite {
			if tp.Opposite(p) != want {
				t.Errorf("%s port %d: opposite %d, want %d", tp.Name(), p, tp.Opposite(p), want)
			}
			if tp.Opposite(tp.Opposite(p)) != p {
				t.Errorf("%s port %d: Opposite is not an involution", tp.Name(), p)
			}
		}
		for _, p := range []int{-1, 5, 99} {
			if tp.Opposite(p) != Local {
				t.Errorf("%s port %d: opposite %d, want Local", tp.Name(), p, tp.Opposite(p))
			}
		}
	}
}

func TestTorusWraparound(t *testing.T) {
	tp, err := NewTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Row-major IDs: node 3 is (3,0); East wraps to (0,0) = node 0.
	if got := tp.Neighbor(3, East); got != 0 {
		t.Errorf("East of node 3 = %d, want 0 (wrap)", got)
	}
	if got := tp.Neighbor(0, West); got != 3 {
		t.Errorf("West of node 0 = %d, want 3 (wrap)", got)
	}
	if got := tp.Neighbor(0, North); got != 12 {
		t.Errorf("North of node 0 = %d, want 12 (wrap)", got)
	}
	if tp.Name() != "4x4 torus" || tp.Width() != 4 || tp.Height() != 4 {
		t.Error("torus metadata wrong")
	}
	// Torus bisection doubles the mesh's: 8 links cross the mid cut vs 4.
	if got := CutLinks(tp); got != 8 {
		t.Errorf("4x4 torus cut links = %d, want 8", got)
	}
	if got := CutLinks(NewMesh(4, 4)); got != 4 {
		t.Errorf("4x4 mesh cut links = %d, want 4", got)
	}
	if _, err := NewTorus(1, 4); err == nil {
		t.Error("1-wide torus accepted")
	}
}

func TestCirculantValidation(t *testing.T) {
	for _, bad := range [][3]int{
		{4, 1, 2},  // n too small
		{16, 0, 4}, // s1 < 1
		{16, 4, 4}, // s1 == s2
		{16, 4, 1}, // s1 > s2
		{16, 1, 16},
		{16, 1, 8},  // 2*s2 == n: ±s2 coincide
		{16, 1, 15}, // s1 + s2 == n: +s1 and -s2 coincide
		{15, 3, 6},  // gcd(15,3,6) = 3: disconnected
	} {
		if _, err := NewCirculant(bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("degenerate circulant C(%d;%d,%d) accepted", bad[0], bad[1], bad[2])
		}
	}
	c, err := NewCirculant(16, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 16 || c.S1() != 1 || c.S2() != 4 {
		t.Error("circulant accessors wrong")
	}
	if c.Name() != "C(16;1,4)" {
		t.Errorf("circulant name %q", c.Name())
	}
	if c.Neighbor(15, PortPlusS1) != 0 || c.Neighbor(0, PortMinusS2) != 12 {
		t.Error("circulant wraparound wrong")
	}
}

func TestSpecBuild(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		name string
	}{
		{MeshSpec(4, 4), "4x4 mesh"},
		{TorusSpec(4, 4), "4x4 torus"},
		{CirculantSpec(16, 1, 4), "C(16;1,4)"},
	} {
		tp, err := tc.spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		if tp.Name() != tc.name || tc.spec.String() != tc.name {
			t.Errorf("spec %+v built %q / prints %q, want %q", tc.spec, tp.Name(), tc.spec.String(), tc.name)
		}
	}
	for _, bad := range []Spec{
		{Kind: "hypercube"},
		{Kind: KindMesh},
		{Kind: KindTorus, W: 1, H: 4},
		{Kind: KindCirculant, N: 16, S1: 2, S2: 2},
	} {
		if _, err := bad.Build(); err == nil {
			t.Errorf("bad spec %+v accepted", bad)
		}
	}
}

func TestAllNodes(t *testing.T) {
	got := AllNodes(4)
	for i, v := range got {
		if v != i {
			t.Fatalf("AllNodes(4) = %v", got)
		}
	}
	if len(AllNodes(0)) != 0 {
		t.Error("AllNodes(0) not empty")
	}
}
