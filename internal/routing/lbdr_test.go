package routing

import (
	"fmt"
	"reflect"
	"testing"

	"nocsprint/internal/sprint"
	"nocsprint/internal/topo"
)

// LBDR is Logic-Based Distributed Routing (Flich, Rodrigo, Duato — the
// paper's reference [7]): a table-less distributed routing mechanism for
// irregular topologies that stores twelve bits per switch — four
// connectivity bits (Cn, Ce, Cs, Cw) and eight routing bits (Rxy: whether a
// packet leaving through x may turn to y at the next switch). The paper's
// CDOR is "adapted from their approach" but exploits the convexity of
// sprint regions to cut the overhead to two bits (Cw, Ce).
//
// This implementation derives the twelve bits from a sprint region with the
// same turn policy CDOR uses (horizontal-first with a vertical escape), so
// it routes the region identically while paying the full LBDR bit budget —
// making the paper's 12-vs-2-bit comparison concrete and testable. It is a
// test oracle: the simulator routes sprint regions with CDOR.
type LBDR struct {
	region *sprint.Region
	bits   []lbdrBits
}

// lbdrBits is one switch's LBDR state: 4 connectivity + 8 routing bits.
type lbdrBits struct {
	cn, ce, cs, cw                         bool
	rne, rnw, ren, res, rse, rsw, rwn, rws bool
}

// BitsPerSwitch is LBDR's per-switch storage (the paper's "twelve extra
// bits per switch").
const BitsPerSwitch = 12

// CDORBitsPerSwitch is CDOR's per-switch storage for comparison (Cw, Ce).
const CDORBitsPerSwitch = 2

// NewLBDR derives LBDR state for every active switch of the region.
func NewLBDR(r *sprint.Region) *LBDR {
	m := r.Mesh()
	masterX := m.Coord(r.Master()).X
	l := &LBDR{region: r, bits: make([]lbdrBits, m.Nodes())}
	conn := r.Connected
	// neighbor reports whether the powered x-neighbour exists; routing
	// bits toward a dark neighbour stay 0 (the connectivity bit already
	// blocks that output, but keeping the bits consistent mirrors the
	// hardware configuration step).
	neighbor := func(id, d int) (int, bool) {
		n := m.Neighbor(id, d)
		if n < 0 || !r.Active(n) {
			return -1, false
		}
		return n, true
	}
	for id := 0; id < m.Nodes(); id++ {
		if !r.Active(id) {
			continue
		}
		b := lbdrBits{
			cn: conn(id, topo.North),
			ce: conn(id, topo.East),
			cs: conn(id, topo.South),
			cw: conn(id, topo.West),
		}
		// Routing bits: Rxy = (turn x→y permitted by the turn model) ∧
		// (the x-neighbour is powered). The turn model is master-relative:
		// with the master in the west column the region is west-aligned,
		// westward links never go dark, and turns *into* West (NW, SW) can
		// be prohibited — West-First, provably deadlock-free. A master in
		// the east column mirrors this (East-First). For interior masters
		// both escape directions are needed; the channel-dependency tests
		// verify the region structure still admits no cycle.
		intoWest := masterX > 0
		intoEast := masterX < m.Width()-1
		if _, ok := neighbor(id, topo.North); ok {
			b.rne = intoEast
			b.rnw = intoWest
		}
		if _, ok := neighbor(id, topo.East); ok {
			b.ren = true
			b.res = true
		}
		if _, ok := neighbor(id, topo.South); ok {
			b.rse = intoEast
			b.rsw = intoWest
		}
		if _, ok := neighbor(id, topo.West); ok {
			b.rwn = true
			b.rws = true
		}
		l.bits[id] = b
	}
	return l
}

// Name implements Algorithm.
func (l *LBDR) Name() string { return fmt.Sprintf("LBDR(level=%d)", l.region.Level()) }

// NextPort implements Algorithm using only the twelve per-switch bits and
// the destination offset, per the LBDR combinational function with
// horizontal-first selection.
func (l *LBDR) NextPort(cur, dst int) (int, error) {
	if !l.region.Active(cur) {
		return topo.Local, fmt.Errorf("routing: LBDR at dark node %d", cur)
	}
	if !l.region.Active(dst) {
		return topo.Local, fmt.Errorf("routing: LBDR destination %d is dark", dst)
	}
	m := l.region.Mesh()
	cc, tc := m.Coord(cur), m.Coord(dst)
	np := tc.Y < cc.Y // N'
	ep := tc.X > cc.X // E'
	sp := tc.Y > cc.Y // S'
	wp := tc.X < cc.X // W'
	if !np && !ep && !sp && !wp {
		return topo.Local, nil
	}
	b := l.bits[cur]
	// LBDR output functions.
	outN := b.cn && ((np && !ep && !wp) || (np && ep && b.rne) || (np && wp && b.rnw))
	outE := b.ce && ((ep && !np && !sp) || (ep && np && b.ren) || (ep && sp && b.res))
	outS := b.cs && ((sp && !ep && !wp) || (sp && ep && b.rse) || (sp && wp && b.rsw))
	outW := b.cw && ((wp && !np && !sp) || (wp && np && b.rwn) || (wp && sp && b.rws))
	// Selection: horizontal first (dimension-order-like), vertical as the
	// escape — the same preference CDOR hardwires.
	switch {
	case outE:
		return topo.East, nil
	case outW:
		return topo.West, nil
	case outN:
		return topo.North, nil
	case outS:
		return topo.South, nil
	default:
		return topo.Local, fmt.Errorf("routing: LBDR has no productive output at %d toward %d", cur, dst)
	}
}

// Bits returns the twelve-bit state of switch id as (connectivity, routing)
// counts of set bits — used by the overhead comparison.
func (l *LBDR) Bits(id int) (conn, routing int) {
	b := l.bits[id]
	for _, v := range []bool{b.cn, b.ce, b.cs, b.cw} {
		if v {
			conn++
		}
	}
	for _, v := range []bool{b.rne, b.rnw, b.ren, b.res, b.rse, b.rsw, b.rwn, b.rws} {
		if v {
			routing++
		}
	}
	return conn, routing
}

var _ Algorithm = (*LBDR)(nil)

// TestLBDRMatchesCDOR verifies that LBDR configured from a sprint region
// routes every in-region pair along exactly the CDOR path, for every level
// and several masters — the twelve bits buy no extra capability on convex
// regions, which is the paper's argument for the 2-bit CDOR.
func TestLBDRMatchesCDOR(t *testing.T) {
	m := topo.NewMesh(4, 4)
	for _, master := range []int{0, 3, 12, 15, 5} {
		for level := 1; level <= 16; level++ {
			r := sprint.NewRegion(m, master, level, sprint.Euclidean)
			lbdr := NewLBDR(r)
			cdor := NewCDOR(r)
			for _, src := range r.ActiveNodes() {
				for _, dst := range r.ActiveNodes() {
					pl, errL := Path(m, lbdr, src, dst)
					pc, errC := Path(m, cdor, src, dst)
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
	m := topo.NewMesh(4, 4)
	for level := 1; level <= 16; level++ {
		r := sprint.NewRegion(m, 0, level, sprint.Euclidean)
		g, err := BuildDependencyGraph(m, NewLBDR(r), r.ActiveNodes())
		if err != nil {
			t.Fatal(err)
		}
		if g.HasCycle() {
			t.Fatalf("level %d: LBDR CDG has a cycle", level)
		}
	}
}

func TestLBDRErrorsOnDarkNodes(t *testing.T) {
	m := topo.NewMesh(4, 4)
	r := sprint.NewRegion(m, 0, 4, sprint.Euclidean)
	l := NewLBDR(r)
	if _, err := l.NextPort(15, 0); err == nil {
		t.Error("routing at dark node accepted")
	}
	if _, err := l.NextPort(0, 15); err == nil {
		t.Error("routing to dark node accepted")
	}
	if l.Name() == "" || l.region != r {
		t.Error("metadata wrong")
	}
}

// TestLBDRBitBudget pins the paper's overhead comparison: LBDR stores 12
// bits per switch, CDOR 2.
func TestLBDRBitBudget(t *testing.T) {
	if BitsPerSwitch != 12 || CDORBitsPerSwitch != 2 {
		t.Fatal("bit budgets drifted from the paper")
	}
	m := topo.NewMesh(4, 4)
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
	m := topo.NewMesh(4, 4)
	r := sprint.NewRegion(m, 0, 8, sprint.Euclidean)
	path, err := Path(m, NewLBDR(r), 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{9, 5, 6, 2}
	if !reflect.DeepEqual(path, want) {
		t.Errorf("LBDR path = %v, want %v", path, want)
	}
}
