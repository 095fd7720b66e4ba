package topo

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewMeshPanicsOnBadDims(t *testing.T) {
	for _, dims := range [][2]int{{0, 4}, {4, 0}, {-1, 3}, {0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMesh(%d,%d) did not panic", dims[0], dims[1])
				}
			}()
			NewMesh(dims[0], dims[1])
		}()
	}
}

func TestIDCoordRoundTrip(t *testing.T) {
	m := NewMesh(4, 4)
	for id := 0; id < m.Nodes(); id++ {
		if got := m.ID(m.Coord(id)); got != id {
			t.Errorf("round trip for %d = %d", id, got)
		}
	}
}

func TestCoordLayoutRowMajor(t *testing.T) {
	m := NewMesh(4, 4)
	// Node 0 top-left, node 5 at (1,1), node 15 bottom-right.
	cases := map[int]Coord{0: {0, 0}, 1: {1, 0}, 4: {0, 1}, 5: {1, 1}, 15: {3, 3}}
	for id, want := range cases {
		if got := m.Coord(id); got != want {
			t.Errorf("Coord(%d) = %v, want %v", id, got, want)
		}
	}
}

func TestIDPanicsOutside(t *testing.T) {
	m := NewMesh(3, 3)
	defer func() {
		if recover() == nil {
			t.Error("ID outside mesh did not panic")
		}
	}()
	m.ID(Coord{3, 0})
}

func TestCoordPanicsOutside(t *testing.T) {
	m := NewMesh(3, 3)
	defer func() {
		if recover() == nil {
			t.Error("Coord outside mesh did not panic")
		}
	}()
	m.Coord(9)
}

func TestMeshNeighbor(t *testing.T) {
	m := NewMesh(4, 4)
	tests := []struct{ id, port, want int }{
		{0, North, -1},
		{0, West, -1},
		{0, East, 1},
		{0, South, 4},
		{5, North, 1},
		{5, East, 6},
		{5, South, 9},
		{5, West, 4},
		{15, East, -1},
		{15, South, -1},
		{3, East, -1},
		{12, West, -1},
		{5, Local, -1},
	}
	for _, tc := range tests {
		if got := m.Neighbor(tc.id, tc.port); got != tc.want {
			t.Errorf("Neighbor(%d,%s) = %d, want %d", tc.id, m.PortName(tc.port), got, tc.want)
		}
	}
}

func TestNeighborsCounts(t *testing.T) {
	m := NewMesh(4, 4)
	wantCount := map[int]int{0: 2, 3: 2, 12: 2, 15: 2, 1: 3, 4: 3, 5: 4, 10: 4}
	for id, want := range wantCount {
		if got := len(m.Neighbors(id)); got != want {
			t.Errorf("node %d has %d neighbours, want %d", id, got, want)
		}
	}
}

func TestMeshPortTo(t *testing.T) {
	m := NewMesh(4, 4)
	for b, want := range map[int]int{1: North, 6: East, 9: South, 4: West} {
		if got := m.PortTo(5, b); got != want {
			t.Errorf("PortTo(5,%d) = %d, want %d", b, got, want)
		}
	}
}

// TestMeshPortToNonAdjacent checks that PortTo answers -1 for the node
// itself, a diagonal, a node two hops away and an id past the mesh.
func TestMeshPortToNonAdjacent(t *testing.T) {
	m := NewMesh(4, 4)
	for _, b := range []int{5, 0, 10, 7, 16} {
		if got := m.PortTo(5, b); got != -1 {
			t.Errorf("PortTo(5,%d) = %d, want -1", b, got)
		}
	}
}

// TestNeighborMatchesCoords checks every mesh port against the coordinate
// step it names: one row up, one column right, one row down, one column left.
func TestNeighborMatchesCoords(t *testing.T) {
	m := NewMesh(5, 3)
	steps := map[int]Coord{North: {0, -1}, East: {1, 0}, South: {0, 1}, West: {-1, 0}}
	for id := 0; id < m.Nodes(); id++ {
		for p, d := range steps {
			c := m.Coord(id)
			c.X, c.Y = c.X+d.X, c.Y+d.Y
			want := -1
			if m.Contains(c) {
				want = m.ID(c)
			}
			if got := m.Neighbor(id, p); got != want {
				t.Fatalf("Neighbor(%d,%s) = %d, want %d", id, m.PortName(p), got, want)
			}
		}
	}
}

func TestDistanceProperties(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 500,
		Rand:     rand.New(rand.NewSource(1)),
		Values: func(vals []reflect.Value, r *rand.Rand) {
			for i := range vals {
				vals[i] = reflect.ValueOf(Coord{X: r.Intn(16), Y: r.Intn(16)})
			}
		},
	}
	// Symmetry and identity for both metrics.
	sym := func(a, b Coord) bool {
		return a.EuclideanSq(b) == b.EuclideanSq(a) &&
			a.Hamming(b) == b.Hamming(a) &&
			a.EuclideanSq(a) == 0 && a.Hamming(a) == 0
	}
	if err := quick.Check(sym, cfg); err != nil {
		t.Error(err)
	}
	// Hamming dominates Euclidean: d_E <= d_H, and d_E^2 <= d_H^2.
	dom := func(a, b Coord) bool {
		h := a.Hamming(b)
		return a.EuclideanSq(b) <= h*h
	}
	if err := quick.Check(dom, cfg); err != nil {
		t.Error(err)
	}
	// Triangle inequality for Hamming.
	tri := func(a, b, c Coord) bool {
		return a.Hamming(c) <= a.Hamming(b)+b.Hamming(c)
	}
	if err := quick.Check(tri, cfg); err != nil {
		t.Error(err)
	}
}
