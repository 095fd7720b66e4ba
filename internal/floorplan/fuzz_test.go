package floorplan

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

// FuzzFloorplanRemap exercises the Algorithm 3/4 thermal placement with
// arbitrary mesh shapes, master nodes, and metrics: the remap must always
// succeed on a valid activation order, equal the reference placement slot
// for slot, produce a logical↔physical bijection, keep the master pinned to
// its own slot, and never spread nodes wider than the mesh diagonal allows.
func FuzzFloorplanRemap(f *testing.F) {
	f.Add(4, 4, 0, 0)
	f.Add(6, 6, 21, 1)
	f.Add(3, 5, 14, 0)
	f.Add(8, 2, -9, 7)
	f.Fuzz(func(t *testing.T, w, h, master, metricRaw int) {
		w, h = 1+fuzzMod(w, 8), 1+fuzzMod(h, 8)
		m := topo.NewMesh(w, h)
		n := m.Nodes()
		master = fuzzMod(master, n)
		metric := sprint.Metric(fuzzMod(metricRaw, 2))

		order := sprint.ActivationOrder(m, master, metric)
		p, err := Thermal(m, order)
		if err != nil {
			t.Fatalf("%dx%d master %d %v: Thermal: %v", w, h, master, metric, err)
		}
		matchReference(t, w, h, master, metric)
		if !p.IsBijection() {
			t.Fatalf("%dx%d master %d %v: remap is not a bijection: %v", w, h, master, metric, p.Positions())
		}
		if p.Pos(master) != master {
			t.Fatalf("%dx%d master %d %v: master moved to slot %d", w, h, master, metric, p.Pos(master))
		}
		for l := 0; l < n; l++ {
			s := p.Pos(l)
			if s < 0 || s >= n {
				t.Fatalf("Pos(%d) = %d out of range", l, s)
			}
		}
		total, max := p.WireLength(m)
		if total < 0 || max < 0 {
			t.Fatalf("negative wire length: total %v max %v", total, max)
		}
		if spread := p.Spread(m, order[:1+fuzzMod(master, n)]); spread < 0 {
			t.Fatalf("negative spread %v", spread)
		}
	})
}
