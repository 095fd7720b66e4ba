package routing

import (
	"reflect"
	"testing"

	"nocsprint/internal/mesh"
	"nocsprint/internal/sprint"
	"nocsprint/internal/topo"
)

// TestLBDRMatchesCDOR verifies that LBDR configured from a sprint region
// routes every in-region pair along exactly the CDOR path, for every level
// and several masters — the twelve bits buy no extra capability on convex
// regions, which is the paper's argument for the 2-bit CDOR.
func TestLBDRMatchesCDOR(t *testing.T) {
	m := mesh.New(4, 4)
	for _, master := range []int{0, 3, 12, 15, 5} {
		for level := 1; level <= 16; level++ {
			r := sprint.NewRegion(m, master, level, sprint.Euclidean)
			lbdr := NewLBDR(r)
			cdor := NewCDOR(r)
			for _, src := range r.ActiveNodes() {
				for _, dst := range r.ActiveNodes() {
					pl, errL := Path(topo.FromMesh(m), lbdr, src, dst)
					pc, errC := Path(topo.FromMesh(m), cdor, src, dst)
					if errL != nil || errC != nil {
						t.Fatalf("master %d level %d %d->%d: lbdr=%v cdor=%v",
							master, level, src, dst, errL, errC)
					}
					if !reflect.DeepEqual(pl, pc) {
						t.Fatalf("master %d level %d %d->%d: LBDR %v != CDOR %v",
							master, level, src, dst, pl, pc)
					}
				}
			}
		}
	}
}

func TestLBDRDeadlockFree(t *testing.T) {
	m := mesh.New(4, 4)
	for level := 1; level <= 16; level++ {
		r := sprint.NewRegion(m, 0, level, sprint.Euclidean)
		g, err := BuildDependencyGraph(topo.FromMesh(m), NewLBDR(r), r.ActiveNodes())
		if err != nil {
			t.Fatal(err)
		}
		if g.HasCycle() {
			t.Fatalf("level %d: LBDR CDG has a cycle", level)
		}
	}
}

func TestLBDRErrorsOnDarkNodes(t *testing.T) {
	m := mesh.New(4, 4)
	r := sprint.NewRegion(m, 0, 4, sprint.Euclidean)
	l := NewLBDR(r)
	if _, err := l.NextPort(15, 0); err == nil {
		t.Error("routing at dark node accepted")
	}
	if _, err := l.NextPort(0, 15); err == nil {
		t.Error("routing to dark node accepted")
	}
	if l.Name() == "" || l.Region() != r {
		t.Error("metadata wrong")
	}
}

// TestLBDRBitBudget pins the paper's overhead comparison: LBDR stores 12
// bits per switch, CDOR 2.
func TestLBDRBitBudget(t *testing.T) {
	if BitsPerSwitch != 12 || CDORBitsPerSwitch != 2 {
		t.Fatal("bit budgets drifted from the paper")
	}
	m := mesh.New(4, 4)
	r := sprint.NewRegion(m, 0, 8, sprint.Euclidean)
	l := NewLBDR(r)
	for _, id := range r.ActiveNodes() {
		conn, routing := l.Bits(id)
		if conn < 1 || conn > 4 || routing > 8 {
			t.Errorf("switch %d has implausible bit counts %d/%d", id, conn, routing)
		}
	}
	// NW/SW turns must stay disabled everywhere (the deadlock guard).
	for _, id := range r.ActiveNodes() {
		b := l.bits[id]
		if b.rnw || b.rsw {
			t.Errorf("switch %d enables a forbidden NW/SW turn", id)
		}
	}
}

// TestLBDRPaperExample re-checks the Figure 5a scenario through LBDR: the
// 8-core region routes 9 -> 2 via the NE escape at node 5.
func TestLBDRPaperExample(t *testing.T) {
	m := mesh.New(4, 4)
	r := sprint.NewRegion(m, 0, 8, sprint.Euclidean)
	path, err := Path(topo.FromMesh(m), NewLBDR(r), 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{9, 5, 6, 2}
	if !reflect.DeepEqual(path, want) {
		t.Errorf("LBDR path = %v, want %v", path, want)
	}
}
