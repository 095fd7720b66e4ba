package floorplan

import (
	"testing"

	"nocsprint/internal/sprint"
	"nocsprint/internal/topo"
)

// TestRemapRoundTripNonSquare pins the logical↔physical remap on rectangular
// meshes (the paper evaluates 4×4, but nothing in Algorithm 3 assumes
// squareness): Pos must be a bijection onto the physical slots, with the
// master pinned to its own slot.
func TestRemapRoundTripNonSquare(t *testing.T) {
	cases := []struct {
		w, h, master int
	}{
		{4, 2, 0},
		{2, 5, 0},
		{5, 3, 7},
		{3, 7, 20}, // master in the far corner
		{8, 2, 9},
	}
	for _, c := range cases {
		m := topo.NewMesh(c.w, c.h)
		order := sprint.ActivationOrder(m, c.master, sprint.Euclidean)
		p, err := Thermal(m, order)
		if err != nil {
			t.Fatalf("%dx%d master %d: %v", c.w, c.h, c.master, err)
		}
		if !p.IsBijection() {
			t.Errorf("%dx%d master %d: not a bijection", c.w, c.h, c.master)
		}
		if p.Pos(c.master) != c.master {
			t.Errorf("%dx%d: master %d moved to slot %d", c.w, c.h, c.master, p.Pos(c.master))
		}
	}
}

// TestPositionsIsACopy: mutating the returned slice must not corrupt the plan.
func TestPositionsIsACopy(t *testing.T) {
	m := topo.NewMesh(4, 2)
	p, err := Thermal(m, sprint.ActivationOrder(m, 0, sprint.Euclidean))
	if err != nil {
		t.Fatal(err)
	}
	got := p.Positions()
	for i, s := range got {
		if s != p.Pos(i) {
			t.Fatalf("Positions()[%d] = %d, Pos = %d", i, s, p.Pos(i))
		}
		got[i] = -1
	}
	if !p.IsBijection() {
		t.Error("mutating Positions() corrupted the plan")
	}
}

// TestIsBijectionDetectsCorruption exercises every rejection branch against
// hand-corrupted plans (white-box: pos is unexported).
func TestIsBijectionDetectsCorruption(t *testing.T) {
	cases := []struct {
		name string
		pos  []int
	}{
		{"duplicate slot", []int{0, 1, 2, 2, 4, 5}},
		{"negative slot", []int{0, 1, -1, 3, 4, 5}},
		{"slot out of range", []int{0, 1, 2, 3, 4, 6}},
	}
	for _, c := range cases {
		p := &Plan{pos: c.pos}
		if p.IsBijection() {
			t.Errorf("%s: accepted as bijection", c.name)
		}
	}
}
