package sprint

import (
	"testing"

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

// FuzzRegionActivate grows regions from arbitrary masters at arbitrary
// levels under both metrics and checks the Algorithm 1 guarantees:
// construction never panics, the region has exactly level nodes including
// the master, activation distances are non-decreasing, connectivity bits
// match the active set, and every region is convex and staircase-shaped —
// the properties CDOR's correctness and the paper's §3.2 argument rest on
// (verified exhaustively for these mesh sizes by the property tests).
func FuzzRegionActivate(f *testing.F) {
	f.Add(4, 4, 0, 8, 0)
	f.Add(8, 8, 27, 16, 1)
	f.Add(3, 5, 14, 1, 0)
	f.Add(9, 1, 4, 9, 1)
	f.Add(2, 7, -6, 200, 3)
	f.Fuzz(func(t *testing.T, w, h, master, level, metricRaw int) {
		w, h = 1+fuzzMod(w, 9), 1+fuzzMod(h, 9)
		m := topo.NewMesh(w, h)
		n := m.Nodes()
		master = fuzzMod(master, n)
		lvl := 1 + fuzzMod(level, n)
		metric := Metric(fuzzMod(metricRaw, 2))

		r := NewRegion(m, master, lvl, metric)
		active := r.ActiveNodes()
		dark := r.order[lvl:]
		if len(active) != lvl || len(dark) != n-lvl {
			t.Fatalf("level %d: %d active + %d dark nodes", lvl, len(active), len(dark))
		}
		if !r.Active(master) || active[0] != master {
			t.Fatalf("master %d not first in activation order %v", master, active)
		}
		for _, id := range active {
			if !r.Active(id) {
				t.Fatalf("ActiveNodes lists %d but Active(%d) is false", id, id)
			}
		}
		for _, id := range dark {
			if r.Active(id) {
				t.Fatalf("order lists dark node %d but Active(%d) is true", id, id)
			}
		}

		// The activation order is a permutation with non-decreasing distance
		// from the master under the chosen metric.
		order := r.order
		mc := m.Coord(master)
		dist := func(id int) int {
			c := m.Coord(id)
			if metric == Hamming {
				return c.Hamming(mc)
			}
			return c.EuclideanSq(mc)
		}
		seen := make([]bool, n)
		for i, id := range order {
			if seen[id] {
				t.Fatalf("order %v repeats node %d", order, id)
			}
			seen[id] = true
			if i > 0 && dist(order[i-1]) > dist(id) {
				t.Fatalf("order %v not sorted by %v distance at index %d", order, metric, i)
			}
		}

		// Connectivity bits agree with the active set.
		for id := 0; id < n; id++ {
			for d := topo.North; d <= topo.West; d++ {
				nb := m.Neighbor(id, d)
				want := nb >= 0 && r.Active(nb)
				if r.Connected(id, d) != want {
					t.Fatalf("Connected(%d,%v) = %v, want %v", id, d, !want, want)
				}
			}
			cw, ce := r.ConnectivityBits(id)
			if cw != r.Connected(id, topo.West) || ce != r.Connected(id, topo.East) {
				t.Fatalf("ConnectivityBits(%d) disagree with Connected", id)
			}
		}

		if !r.IsConvex() {
			t.Fatalf("%dx%d master %d level %d %v: region not convex: %v", w, h, master, lvl, metric, active)
		}
		if !r.IsStaircase() {
			t.Fatalf("%dx%d master %d level %d %v: region not staircase: %v", w, h, master, lvl, metric, active)
		}
	})
}
