package routing

import (
	"fmt"
	"testing"

	"nocsprint/internal/sprint"
	"nocsprint/internal/topo"
)

// The Figure 6 routing circuit as boolean logic over two coordinate
// comparators and the two connectivity bits: an oracle the tests below hold
// the behavioural DOR and CDOR to.

// PortRequest is the one-hot output-port request a routing circuit emits.
type PortRequest struct {
	N, E, S, W, Local bool
}

// Direction converts the one-hot request to a mesh port. It returns an
// error if the request is not exactly one-hot, which would indicate a logic
// bug.
func (p PortRequest) Direction() (int, error) {
	var (
		dir int
		n   int
	)
	if p.N {
		dir, n = topo.North, n+1
	}
	if p.E {
		dir, n = topo.East, n+1
	}
	if p.S {
		dir, n = topo.South, n+1
	}
	if p.W {
		dir, n = topo.West, n+1
	}
	if p.Local {
		dir, n = topo.Local, n+1
	}
	if n != 1 {
		return topo.Local, fmt.Errorf("routing: port request not one-hot: %+v", p)
	}
	return dir, nil
}

// Comparators is the output of the two per-switch coordinate comparators
// (Figure 6 keeps Xdes/Ydes in the header and Xcur/Ycur in registers).
type Comparators struct {
	GtX, LtX bool // Xdes > Xcur, Xdes < Xcur
	GtY, LtY bool // Ydes > Ycur, Ydes < Ycur
}

// Compare models the comparator block for the given current/destination
// coordinates.
func Compare(cur, des topo.Coord) Comparators {
	return Comparators{
		GtX: des.X > cur.X, LtX: des.X < cur.X,
		GtY: des.Y > cur.Y, LtY: des.Y < cur.Y,
	}
}

// DORPortLogic is the conventional X-Y routing circuit: X offsets first,
// then Y, then eject.
func DORPortLogic(c Comparators) PortRequest {
	eqX := !c.GtX && !c.LtX
	return PortRequest{
		E:     c.GtX,
		W:     c.LtX,
		S:     eqX && c.GtY,
		N:     eqX && c.LtY,
		Local: eqX && !c.GtY && !c.LtY,
	}
}

// CDORPortLogic is the convex-DOR circuit of Figure 6 extended with the
// escape-direction select: a horizontal request through an unpowered link
// (¬Ce / ¬Cw) is redirected toward the master row. For the paper's top-left
// master, belowMaster is simply (Ycur > 0) and the escape is always North —
// the published circuit; aboveMaster adds the symmetric South escape for
// the alternative master placements of §3.2.
func CDORPortLogic(c Comparators, cw, ce, belowMaster, aboveMaster bool) PortRequest {
	eqX := !c.GtX && !c.LtX
	blockedE := c.GtX && !ce
	blockedW := c.LtX && !cw
	escape := blockedE || blockedW
	return PortRequest{
		E:     c.GtX && ce,
		W:     c.LtX && cw,
		N:     (eqX && c.LtY) || (escape && belowMaster),
		S:     (eqX && c.GtY) || (escape && aboveMaster),
		Local: eqX && !c.GtY && !c.LtY,
	}
}

// TestDORPortLogicMatchesBehavioral exhaustively checks the gate-level DOR
// circuit against the behavioral algorithm on a 4x4 mesh.
func TestDORPortLogicMatchesBehavioral(t *testing.T) {
	m := topo.NewMesh(4, 4)
	alg := NewDOR(m)
	for cur := 0; cur < 16; cur++ {
		for dst := 0; dst < 16; dst++ {
			want, err := alg.NextPort(cur, dst)
			if err != nil {
				t.Fatal(err)
			}
			req := DORPortLogic(Compare(m.Coord(cur), m.Coord(dst)))
			got, err := req.Direction()
			if err != nil {
				t.Fatalf("cur=%d dst=%d: %v", cur, dst, err)
			}
			if int(got) != want {
				t.Fatalf("cur=%d dst=%d: circuit %v, behavioral %v", cur, dst, got, want)
			}
		}
	}
}

// TestCDORPortLogicMatchesBehavioral checks the Figure 6 circuit (with the
// generalised escape select) against the behavioral CDOR for every master,
// level, and in-region pair on a 4x4 mesh.
func TestCDORPortLogicMatchesBehavioral(t *testing.T) {
	m := topo.NewMesh(4, 4)
	for master := 0; master < 16; master++ {
		masterY := m.Coord(master).Y
		for level := 1; level <= 16; level++ {
			r := sprint.NewRegion(m, master, level, sprint.Euclidean)
			alg := NewCDOR(r)
			for _, cur := range r.ActiveNodes() {
				for _, dst := range r.ActiveNodes() {
					want, err := alg.NextPort(cur, dst)
					if err != nil {
						t.Fatal(err)
					}
					cc := m.Coord(cur)
					cw, ce := r.ConnectivityBits(cur)
					req := CDORPortLogic(Compare(cc, m.Coord(dst)), cw, ce,
						cc.Y > masterY, cc.Y < masterY)
					got, err := req.Direction()
					if err != nil {
						t.Fatalf("master=%d level=%d cur=%d dst=%d: %v", master, level, cur, dst, err)
					}
					if int(got) != want {
						t.Fatalf("master=%d level=%d cur=%d dst=%d: circuit %v, behavioral %v",
							master, level, cur, dst, got, want)
					}
				}
			}
		}
	}
}

// TestCDORPortLogicOneHot checks the circuit never raises zero or multiple
// port requests for any comparator/connectivity combination that can arise
// in a staircase region.
func TestCDORPortLogicOneHot(t *testing.T) {
	bools := []bool{false, true}
	for _, gtX := range bools {
		for _, ltX := range bools {
			if gtX && ltX {
				continue // comparator outputs are mutually exclusive
			}
			for _, gtY := range bools {
				for _, ltY := range bools {
					if gtY && ltY {
						continue
					}
					for _, cw := range bools {
						for _, ce := range bools {
							for _, below := range bools {
								for _, above := range bools {
									if below && above {
										continue
									}
									// A blocked horizontal move on the
									// master row (¬below ∧ ¬above) cannot
									// occur for in-region destinations;
									// exclude it as the circuit's
									// don't-care set.
									blocked := (gtX && !ce) || (ltX && !cw)
									if blocked && !below && !above {
										continue
									}
									req := CDORPortLogic(Comparators{GtX: gtX, LtX: ltX, GtY: gtY, LtY: ltY}, cw, ce, below, above)
									if _, err := req.Direction(); err != nil {
										t.Fatalf("gtX=%v ltX=%v gtY=%v ltY=%v cw=%v ce=%v below=%v above=%v: %v",
											gtX, ltX, gtY, ltY, cw, ce, below, above, err)
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestCDORAreaOverheadBelowPaperBound reproduces the §3.2 synthesis result:
// CDOR adds less than 2% area to a conventional DOR switch of the Table 1
// configuration.
func TestCDORAreaOverheadBelowPaperBound(t *testing.T) {
	p := SwitchParams{Ports: 5, VCs: 4, BufferDepth: 4, FlitBits: 128, CoordBits: 2}
	overhead, err := CDOROverhead(p)
	if err != nil {
		t.Fatal(err)
	}
	if overhead <= 0 {
		t.Fatalf("CDOR should cost some area, got %v", overhead)
	}
	if overhead >= 0.02 {
		t.Fatalf("CDOR area overhead %.4f, paper reports < 2%%", overhead)
	}
	// Buffers must dominate switch area (sanity of the model).
	dor, err := DORSwitchArea(p)
	if err != nil {
		t.Fatal(err)
	}
	if dor.BufferGE < dor.CrossbarGE || dor.BufferGE < dor.RoutingGE {
		t.Error("buffer area should dominate a VC router")
	}
	if dor.Total() <= 0 {
		t.Error("empty area")
	}
}

// TestCDORAreaOverheadSmallSwitch checks the overhead stays below 2% even
// for a lean switch (fewer VCs and shallower buffers), where the fixed
// logic addition weighs relatively more.
func TestCDORAreaOverheadSmallSwitch(t *testing.T) {
	p := SwitchParams{Ports: 5, VCs: 2, BufferDepth: 2, FlitBits: 64, CoordBits: 3}
	overhead, err := CDOROverhead(p)
	if err != nil {
		t.Fatal(err)
	}
	if overhead >= 0.02 {
		t.Errorf("lean switch overhead %.4f exceeds 2%%", overhead)
	}
}

func TestSwitchParamsValidate(t *testing.T) {
	bad := []SwitchParams{
		{Ports: 1, VCs: 1, BufferDepth: 1, FlitBits: 1, CoordBits: 1},
		{Ports: 5, VCs: 0, BufferDepth: 1, FlitBits: 1, CoordBits: 1},
		{Ports: 5, VCs: 1, BufferDepth: 0, FlitBits: 1, CoordBits: 1},
		{Ports: 5, VCs: 1, BufferDepth: 1, FlitBits: 0, CoordBits: 1},
		{Ports: 5, VCs: 1, BufferDepth: 1, FlitBits: 1, CoordBits: 0},
	}
	for i, p := range bad {
		if _, err := DORSwitchArea(p); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
		if _, err := CDORSwitchArea(p); err == nil {
			t.Errorf("bad params %d accepted by CDOR", i)
		}
		if _, err := CDOROverhead(p); err == nil {
			t.Errorf("bad params %d accepted by overhead", i)
		}
	}
}

func TestPortRequestDirectionErrors(t *testing.T) {
	if _, err := (PortRequest{}).Direction(); err == nil {
		t.Error("zero-hot request accepted")
	}
	if _, err := (PortRequest{N: true, E: true}).Direction(); err == nil {
		t.Error("two-hot request accepted")
	}
}
