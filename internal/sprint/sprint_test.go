package sprint

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"nocsprint/internal/topo"
)

// TestActivationOrderPaper4x4 pins the exact order the paper's 4×4 example
// implies for a top-left master: ascending squared Euclidean distance, ties
// by index.
func TestActivationOrderPaper4x4(t *testing.T) {
	m := topo.NewMesh(4, 4)
	got := ActivationOrder(m, 0, Euclidean)
	want := []int{0, 1, 4, 5, 2, 8, 6, 9, 10, 3, 12, 7, 13, 11, 14, 15}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ActivationOrder = %v, want %v", got, want)
	}
}

// TestEuclideanVsHammingFourCore reproduces the paper's §3.2 example: both
// metrics agree on 3-core sprinting {0,1,4}, but for the 4th node Hamming
// may pick node 2 while Euclidean picks the better node 5.
func TestEuclideanVsHammingFourCore(t *testing.T) {
	m := topo.NewMesh(4, 4)
	eu := ActivationOrder(m, 0, Euclidean)
	ha := ActivationOrder(m, 0, Hamming)
	if !reflect.DeepEqual(eu[:3], []int{0, 1, 4}) || !reflect.DeepEqual(ha[:3], []int{0, 1, 4}) {
		t.Fatalf("3-core sets differ from paper: eu=%v ha=%v", eu[:3], ha[:3])
	}
	if eu[3] != 5 {
		t.Errorf("Euclidean 4th node = %d, want 5", eu[3])
	}
	if ha[3] != 2 {
		t.Errorf("Hamming 4th node = %d, want 2 (tie-break by index)", ha[3])
	}
}

func TestActivationOrderIsPermutation(t *testing.T) {
	for _, dims := range [][2]int{{4, 4}, {8, 8}, {5, 3}, {1, 1}, {2, 7}} {
		m := topo.NewMesh(dims[0], dims[1])
		for _, metric := range []Metric{Euclidean, Hamming} {
			for master := 0; master < m.Nodes(); master++ {
				order := ActivationOrder(m, master, metric)
				if order[0] != master {
					t.Fatalf("%dx%d master %d: order[0]=%d", dims[0], dims[1], master, order[0])
				}
				seen := make([]bool, m.Nodes())
				for _, id := range order {
					if seen[id] {
						t.Fatalf("duplicate node %d in order", id)
					}
					seen[id] = true
				}
			}
		}
	}
}

func TestActivationOrderMonotoneDistance(t *testing.T) {
	m := topo.NewMesh(8, 8)
	order := ActivationOrder(m, 0, Euclidean)
	prev := -1
	for _, id := range order {
		d := m.Coord(0).EuclideanSq(m.Coord(id))
		if d < prev {
			t.Fatalf("distance not monotone at node %d", id)
		}
		prev = d
	}
}

func TestRegionEightCorePaper(t *testing.T) {
	m := topo.NewMesh(4, 4)
	r := NewRegion(m, 0, 8, Euclidean)
	want := map[int]bool{0: true, 1: true, 4: true, 5: true, 2: true, 8: true, 6: true, 9: true}
	for id := 0; id < 16; id++ {
		if r.Active(id) != want[id] {
			t.Errorf("node %d active=%v, want %v", id, r.Active(id), want[id])
		}
	}
	// Paper's NE-turn premise: node 9's east neighbour (10) is dark, node
	// 5's east neighbour (6) is active.
	if _, ce := r.ConnectivityBits(9); ce {
		t.Error("node 9 Ce should be false in 8-core sprint")
	}
	if _, ce := r.ConnectivityBits(5); !ce {
		t.Error("node 5 Ce should be true in 8-core sprint")
	}
}

func TestRegionConvexAndStaircaseAllLevels(t *testing.T) {
	for _, dims := range [][2]int{{4, 4}, {8, 8}, {6, 3}} {
		m := topo.NewMesh(dims[0], dims[1])
		for level := 1; level <= m.Nodes(); level++ {
			r := NewRegion(m, 0, level, Euclidean)
			if !r.IsConvex() {
				t.Errorf("%dx%d level %d: region not convex", dims[0], dims[1], level)
			}
			if !r.IsStaircase() {
				t.Errorf("%dx%d level %d: region not staircase", dims[0], dims[1], level)
			}
		}
	}
}

// TestRegionStaircaseAnyCornerQuick property-checks the staircase invariant
// for Euclidean prefixes grown from any of the four corners on random mesh
// sizes — the invariant CDOR's escape rule depends on.
func TestRegionStaircaseAnyCornerQuick(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Rand:     rand.New(rand.NewSource(42)),
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(2 + r.Intn(7)) // width
			vals[1] = reflect.ValueOf(2 + r.Intn(7)) // height
			vals[2] = reflect.ValueOf(r.Intn(4))     // corner index
			vals[3] = reflect.ValueOf(r.Float64())   // level fraction
		},
	}
	prop := func(w, h, corner int, frac float64) bool {
		m := topo.NewMesh(w, h)
		corners := []topo.Coord{{X: 0, Y: 0}, {X: w - 1, Y: 0}, {X: 0, Y: h - 1}, {X: w - 1, Y: h - 1}}
		master := m.ID(corners[corner])
		level := 1 + int(frac*float64(m.Nodes()-1))
		r := NewRegion(m, master, level, Euclidean)
		return r.IsStaircase() && r.IsConvex()
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestRegionActiveDarkPartition(t *testing.T) {
	m := topo.NewMesh(4, 4)
	for level := 1; level <= 16; level++ {
		r := NewRegion(m, 0, level, Euclidean)
		a, d := r.ActiveNodes(), r.order[level:]
		if len(a) != level || len(d) != 16-level {
			t.Fatalf("level %d: %d active, %d dark", level, len(a), len(d))
		}
		seen := make(map[int]bool)
		for _, id := range append(a, d...) {
			if seen[id] {
				t.Fatalf("node %d in both sets", id)
			}
			seen[id] = true
		}
	}
}

func TestNewRegionPanics(t *testing.T) {
	m := topo.NewMesh(4, 4)
	for _, tc := range []struct{ master, level int }{{-1, 4}, {16, 4}, {0, 0}, {0, 17}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRegion(master=%d level=%d) did not panic", tc.master, tc.level)
				}
			}()
			NewRegion(m, tc.master, tc.level, Euclidean)
		}()
	}
}

func TestConnectivityBitsFullMesh(t *testing.T) {
	m := topo.NewMesh(4, 4)
	r := NewRegion(m, 0, 16, Euclidean)
	// In a fully-active mesh, Cw is false only on the west edge, Ce only on
	// the east edge.
	for id := 0; id < 16; id++ {
		c := m.Coord(id)
		cw, ce := r.ConnectivityBits(id)
		if cw != (c.X > 0) || ce != (c.X < 3) {
			t.Errorf("node %d: cw=%v ce=%v", id, cw, ce)
		}
	}
}

func TestMetricString(t *testing.T) {
	if Euclidean.String() != "euclidean" || Hamming.String() != "hamming" {
		t.Error("metric names wrong")
	}
}

// IsStaircase reports whether the active set is "downward-closed" toward the
// master corner: for every active node, stepping one hop toward the master
// in either dimension stays active. For a corner master this property makes
// CDOR's escape-North rule terminate; it holds for every Euclidean-ordered
// prefix grown from a corner (verified by property tests). It is a test
// oracle: CDOR relies on the property but never evaluates it.
func (r *Region) IsStaircase() bool {
	mc := r.mesh.Coord(r.master)
	for id := 0; id < r.mesh.Nodes(); id++ {
		if !r.active[id] {
			continue
		}
		c := r.mesh.Coord(id)
		if c.X != mc.X {
			step := c
			if c.X > mc.X {
				step.X--
			} else {
				step.X++
			}
			if !r.active[r.mesh.ID(step)] {
				return false
			}
		}
		if c.Y != mc.Y {
			step := c
			if c.Y > mc.Y {
				step.Y--
			} else {
				step.Y++
			}
			if !r.active[r.mesh.ID(step)] {
				return false
			}
		}
	}
	return true
}
