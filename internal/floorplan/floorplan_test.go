package floorplan

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"nocsprint/internal/mesh"
	"nocsprint/internal/sprint"
)

func plan4x4(t *testing.T) *Plan {
	t.Helper()
	m := mesh.New(4, 4)
	order := sprint.ActivationOrder(m, 0, sprint.Euclidean)
	p, err := Thermal(m, order)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// identity is the trivial floorplan in which every logical node sits at its
// own physical slot (the paper's baseline without Algorithm 3).
func identity(m mesh.Mesh) *Plan {
	p := &Plan{pos: make([]int, m.Nodes())}
	for i := range p.pos {
		p.pos[i] = i
	}
	return p
}

func TestIdentityPlan(t *testing.T) {
	m := mesh.New(4, 4)
	p := identity(m)
	for i := 0; i < 16; i++ {
		if p.Pos(i) != i {
			t.Fatalf("identity plan broken at %d", i)
		}
	}
	if !p.IsBijection() {
		t.Fatal("identity not a bijection")
	}
	total, max := p.WireLength(m)
	if total != 24 || max != 1 {
		t.Errorf("identity wire length = %v,%v want 24,1", total, max)
	}
}

func TestThermalIsBijection(t *testing.T) {
	p := plan4x4(t)
	if !p.IsBijection() {
		t.Fatal("thermal plan is not a bijection")
	}
	if len(p.Positions()) != 16 {
		t.Fatal("positions wrong length")
	}
}

func TestThermalMasterPinned(t *testing.T) {
	p := plan4x4(t)
	if p.Pos(0) != 0 {
		t.Errorf("master moved to slot %d", p.Pos(0))
	}
}

func TestThermalDeterministic(t *testing.T) {
	m := mesh.New(4, 4)
	order := sprint.ActivationOrder(m, 0, sprint.Euclidean)
	p1, err1 := Thermal(m, order)
	p2, err2 := Thermal(m, order)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for i := 0; i < 16; i++ {
		if p1.Pos(i) != p2.Pos(i) {
			t.Fatal("thermal plan not deterministic")
		}
	}
}

// TestThermalSpreadsSprintSets is the point of Algorithm 3: for small sprint
// levels, the active set's physical spread must exceed the identity plan's.
func TestThermalSpreadsSprintSets(t *testing.T) {
	m := mesh.New(4, 4)
	order := sprint.ActivationOrder(m, 0, sprint.Euclidean)
	thermal, err := Thermal(m, order)
	if err != nil {
		t.Fatal(err)
	}
	id := identity(m)
	for _, level := range []int{2, 3, 4, 6, 8} {
		active := order[:level]
		st, si := thermal.Spread(m, active), id.Spread(m, active)
		if st <= si {
			t.Errorf("level %d: thermal spread %.3f <= identity spread %.3f", level, st, si)
		}
	}
}

func TestThermalIncreasesWireLength(t *testing.T) {
	m := mesh.New(4, 4)
	order := sprint.ActivationOrder(m, 0, sprint.Euclidean)
	thermal, err := Thermal(m, order)
	if err != nil {
		t.Fatal(err)
	}
	tTot, tMax := thermal.WireLength(m)
	iTot, iMax := identity(m).WireLength(m)
	// The paper concedes the floorplan generates long links (repeated
	// SMART-style wires): total and max wire length must grow.
	if tTot <= iTot || tMax <= iMax {
		t.Errorf("thermal wires (%.2f,%.2f) not longer than identity (%.2f,%.2f)", tTot, tMax, iTot, iMax)
	}
}

func TestThermalRejectsBadOrder(t *testing.T) {
	m := mesh.New(4, 4)
	if _, err := Thermal(m, []int{0, 1, 2}); err == nil {
		t.Error("short order accepted")
	}
	bad := make([]int, 16)
	for i := range bad {
		bad[i] = 0 // duplicate
	}
	if _, err := Thermal(m, bad); err == nil {
		t.Error("duplicate order accepted")
	}
	bad2 := make([]int, 16)
	for i := range bad2 {
		bad2[i] = i
	}
	bad2[3] = 99
	if _, err := Thermal(m, bad2); err == nil {
		t.Error("out-of-range order accepted")
	}
}

func TestSpreadTrivialSets(t *testing.T) {
	m := mesh.New(4, 4)
	p := identity(m)
	if p.Spread(m, nil) != 0 || p.Spread(m, []int{3}) != 0 {
		t.Error("spread of <2 nodes should be 0")
	}
	// Two horizontally adjacent logical nodes are 1 apart physically under
	// identity.
	if got := p.Spread(m, []int{0, 1}); got != 1 {
		t.Errorf("spread(0,1) = %v", got)
	}
}

// TestThermalQuickRandomMeshes property-checks bijection validity and master
// pinning over random mesh sizes and masters.
func TestThermalQuickRandomMeshes(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 40,
		Rand:     rand.New(rand.NewSource(3)),
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(2 + r.Intn(5))
			vals[1] = reflect.ValueOf(2 + r.Intn(5))
			vals[2] = reflect.ValueOf(r.Float64())
		},
	}
	prop := func(w, h int, mf float64) bool {
		m := mesh.New(w, h)
		master := int(mf * float64(m.Nodes()-1))
		order := sprint.ActivationOrder(m, master, sprint.Euclidean)
		p, err := Thermal(m, order)
		if err != nil {
			return false
		}
		return p.IsBijection() && p.Pos(master) == master
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// referenceThermal is Thermal with Algorithm 4 written as the literal loop
// over free slots, recomputing every weight and distance from mesh
// coordinates. It is the oracle the kernel must match bit for bit and the
// baseline BenchmarkThermal times it against. order must be a valid
// activation list.
func referenceThermal(m mesh.Mesh, order []int) *Plan {
	n := m.Nodes()
	master := order[0]
	rank := make([]int, n)
	for i, id := range order {
		rank[id] = i
	}

	p := &Plan{pos: make([]int, n)}
	for i := range p.pos {
		p.pos[i] = -1
	}
	placed := make([]int, 0, n) // logical nodes already placed (set S)
	freeSlot := make([]bool, n) // physical slots still free (set S')
	enqueued := make([]bool, n) // logical nodes already queued or placed
	for i := range freeSlot {
		freeSlot[i] = true
	}

	place := func(logical, slot int) {
		p.pos[logical] = slot
		freeSlot[slot] = false
		placed = append(placed, logical)
	}

	place(master, master)
	enqueued[master] = true

	queue := make([]int, 0, n)
	pushNeighbors := func(id int) {
		neigh := make([]int, 0, 4)
		for _, nb := range m.Neighbors(id) {
			if !enqueued[nb] {
				neigh = append(neigh, nb)
				enqueued[nb] = true
			}
		}
		for i := 1; i < len(neigh); i++ {
			for j := i; j > 0 && rank[neigh[j]] < rank[neigh[j-1]]; j-- {
				neigh[j], neigh[j-1] = neigh[j-1], neigh[j]
			}
		}
		queue = append(queue, neigh...)
	}
	pushNeighbors(master)

	for len(queue) > 0 {
		rk := queue[0]
		queue = queue[1:]
		slot := referenceMaxWeightedDistance(m, placed, p.pos, freeSlot, rk)
		place(rk, slot)
		pushNeighbors(rk)
	}
	return p
}

// referenceMaxWeightedDistance is Algorithm 4 term by term: among free
// physical slots, the one maximising Σ_j w_kj · d(slot, Pos(Rj)) over placed
// logical nodes Rj, with w_kj = 1 / HammingLogical(Rk, Rj) and d the
// physical Euclidean distance; ties break toward the lowest slot index.
func referenceMaxWeightedDistance(m mesh.Mesh, placed []int, pos []int, freeSlot []bool, rk int) int {
	best, bestSum := -1, -1.0
	ck := m.Coord(rk)
	for slot := 0; slot < m.Nodes(); slot++ {
		if !freeSlot[slot] {
			continue
		}
		cs := m.Coord(slot)
		sum := 0.0
		for _, rj := range placed {
			w := 1.0 / float64(ck.Hamming(m.Coord(rj)))
			d := cs.Euclidean(m.Coord(pos[rj]))
			sum += w * d
		}
		if sum > bestSum {
			bestSum, best = sum, slot
		}
	}
	return best
}

// matchReference fails t unless Thermal places every node of the w×h mesh
// exactly where referenceThermal does, for the activation order from master
// under metric.
func matchReference(t *testing.T, w, h, master int, metric sprint.Metric) {
	t.Helper()
	m := mesh.New(w, h)
	order := sprint.ActivationOrder(m, master, metric)
	p, err := Thermal(m, order)
	if err != nil {
		t.Fatalf("%dx%d master %d %v: Thermal: %v", w, h, master, metric, err)
	}
	if got, want := p.Positions(), referenceThermal(m, order).Positions(); !slices.Equal(got, want) {
		t.Fatalf("%dx%d master %d %v: Thermal placed %v, reference %v", w, h, master, metric, got, want)
	}
}

// TestThermalMatchesReference requires the kernel's plan to equal the
// reference's bit for bit: on every mesh up to 12×12 with the master in the
// first, middle and last slot under both activation metrics, and on the
// 16×16 chip, a wide 32×8 and a lopsided 13×29 mesh with off-corner masters.
// One reordered addition or a flipped tie-break moves some of these plans.
func TestThermalMatchesReference(t *testing.T) {
	type mc struct{ w, h, master int }
	var cases []mc
	for w := 1; w <= 12; w++ {
		for h := 1; h <= 12; h++ {
			n := w * h
			cases = append(cases, mc{w, h, 0}, mc{w, h, n / 2}, mc{w, h, n - 1})
		}
	}
	cases = append(cases, mc{16, 16, 0}, mc{16, 16, 119}, mc{32, 8, 77}, mc{13, 29, 200})
	for _, c := range cases {
		for _, metric := range []sprint.Metric{sprint.Euclidean, sprint.Hamming} {
			matchReference(t, c.w, c.h, c.master, metric)
		}
	}
}

// BenchmarkThermal times the kernel and the reference on the 16×16 chip of
// the dark-silicon workload and on a 32×32 chip.
func BenchmarkThermal(b *testing.B) {
	for _, size := range []int{16, 32} {
		m := mesh.New(size, size)
		order := sprint.ActivationOrder(m, 0, sprint.Euclidean)
		b.Run(fmt.Sprintf("kernel/%dx%d", size, size), func(b *testing.B) {
			for range b.N {
				if _, err := Thermal(m, order); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("reference/%dx%d", size, size), func(b *testing.B) {
			for range b.N {
				referenceThermal(m, order)
			}
		})
	}
}

// The plan's properties below are test oracles: the simulator and the
// thermal model read a plan only through Pos.

// Positions returns a copy of the full logical→physical mapping.
func (p *Plan) Positions() []int { return append([]int(nil), p.pos...) }

// IsBijection reports whether the plan maps every logical node to a distinct
// physical slot (a validity invariant property tests rely on).
func (p *Plan) IsBijection() bool {
	seen := make([]bool, len(p.pos))
	for _, s := range p.pos {
		if s < 0 || s >= len(seen) || seen[s] {
			return false
		}
		seen[s] = true
	}
	return true
}

// WireLength returns the total and maximum physical Euclidean length of all
// logical links of mesh m under the plan. The thermal plan trades longer wires
// (mitigated in hardware by SMART-style clockless repeaters, §3.3) for
// better heat spreading; these metrics quantify that cost.
func (p *Plan) WireLength(m mesh.Mesh) (total, max float64) {
	for id := 0; id < m.Nodes(); id++ {
		for _, d := range [...]mesh.Direction{mesh.East, mesh.South} {
			nb, ok := m.Neighbor(id, d)
			if !ok {
				continue
			}
			l := m.Coord(p.pos[id]).Euclidean(m.Coord(p.pos[nb]))
			total += l
			if l > max {
				max = l
			}
		}
	}
	return total, max
}

// Spread returns the mean pairwise physical Euclidean distance among the
// given logical nodes of mesh m under the plan — the quantity Algorithm 3 maximises
// for co-sprinting sets. Returns 0 for fewer than two nodes.
func (p *Plan) Spread(m mesh.Mesh, logical []int) float64 {
	if len(logical) < 2 {
		return 0
	}
	var sum float64
	var pairs int
	for i, a := range logical {
		for _, b := range logical[i+1:] {
			sum += m.Coord(p.pos[a]).Euclidean(m.Coord(p.pos[b]))
			pairs++
		}
	}
	return sum / float64(pairs)
}
