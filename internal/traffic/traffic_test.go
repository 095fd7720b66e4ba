package traffic

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestUniformNeverSelf(t *testing.T) {
	u := NewUniform(8)
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, 8)
	for i := 0; i < 8000; i++ {
		src := i % 8
		d := u.Pick(src, rng)
		if d == src {
			t.Fatal("uniform picked self")
		}
		if d < 0 || d >= 8 {
			t.Fatal("uniform out of range")
		}
		counts[d]++
	}
	// Roughly balanced destinations.
	for i, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("destination %d picked %d times of 8000", i, c)
		}
	}
	if u.N() != 8 || u.Name() != "uniform" {
		t.Error("uniform metadata wrong")
	}
}

func TestUniformPanicsTooSmall(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewUniform(1) did not panic")
		}
	}()
	NewUniform(1)
}

func TestTranspose(t *testing.T) {
	tr := NewTranspose(4)
	rng := rand.New(rand.NewSource(2))
	// (x,y)=(1,2) index 9 -> (2,1) index 6.
	if d := tr.Pick(9, rng); d != 6 {
		t.Errorf("transpose(9) = %d, want 6", d)
	}
	// Diagonal falls back to uniform, never self.
	for i := 0; i < 100; i++ {
		if d := tr.Pick(5, rng); d == 5 {
			t.Fatal("transpose diagonal picked self")
		}
	}
	if tr.N() != 16 || tr.Name() != "transpose" {
		t.Error("transpose metadata wrong")
	}
}

func TestBitComplement(t *testing.T) {
	b := NewBitComplement(16)
	rng := rand.New(rand.NewSource(3))
	if d := b.Pick(0, rng); d != 15 {
		t.Errorf("bitcomp(0) = %d", d)
	}
	if d := b.Pick(5, rng); d != 10 {
		t.Errorf("bitcomp(5) = %d", d)
	}
	// Odd-sized set: the midpoint falls back to uniform.
	b2 := NewBitComplement(5)
	for i := 0; i < 50; i++ {
		if d := b2.Pick(2, rng); d == 2 {
			t.Fatal("bitcomp midpoint picked self")
		}
	}
}

func TestHotspot(t *testing.T) {
	h := NewHotspot(16, 0, 0.5)
	rng := rand.New(rand.NewSource(4))
	hot := 0
	const trials = 10000
	for i := 0; i < trials; i++ {
		if d := h.Pick(5, rng); d == 0 {
			hot++
		}
	}
	// P(hot) = 0.5 + 0.5*(1/15) ≈ 0.533.
	frac := float64(hot) / trials
	if math.Abs(frac-0.533) > 0.03 {
		t.Errorf("hotspot fraction %.3f, want ~0.533", frac)
	}
	// The hotspot node itself sends uniform traffic.
	for i := 0; i < 100; i++ {
		if d := h.Pick(0, rng); d == 0 {
			t.Fatal("hotspot node picked self")
		}
	}
	for _, bad := range []func(){
		func() { NewHotspot(1, 0, 0.5) },
		func() { NewHotspot(8, 9, 0.5) },
		func() { NewHotspot(8, 0, 1.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad hotspot accepted")
				}
			}()
			bad()
		}()
	}
}

func TestNeighbor(t *testing.T) {
	n := NewNeighbor(4)
	if n.Pick(0, nil) != 1 || n.Pick(3, nil) != 0 {
		t.Error("neighbor ring wrong")
	}
}

func TestPermutationIsDerangement(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		p := NewPermutation(7, rand.New(rand.NewSource(seed)))
		seen := make([]bool, 7)
		for i := 0; i < 7; i++ {
			d := p.Pick(i, nil)
			if d == i {
				t.Fatalf("seed %d: fixed point at %d", seed, i)
			}
			if seen[d] {
				t.Fatalf("seed %d: not a permutation", seed)
			}
			seen[d] = true
		}
	}
}

func TestSetMapping(t *testing.T) {
	s := NewSet([]int{3, 9, 12, 0})
	if s.Size() != 4 || s.nodes[1] != 9 || s.Index(12) != 2 || s.Index(5) != -1 {
		t.Error("set mapping wrong")
	}
	rng := rand.New(rand.NewSource(5))
	u := NewUniform(4)
	for i := 0; i < 200; i++ {
		dst := s.PickNode(u, 9, rng)
		if dst == 9 {
			t.Fatal("PickNode returned source")
		}
		if s.Index(dst) < 0 {
			t.Fatal("PickNode returned node outside set")
		}
	}
}

func TestSetPanics(t *testing.T) {
	for _, bad := range []func(){
		func() { NewSet([]int{1, 1}) },
		func() { NewSet([]int{1, 2}).PickNode(NewUniform(3), 1, rand.New(rand.NewSource(0))) },
		func() { NewSet([]int{1, 2}).PickNode(NewUniform(2), 7, rand.New(rand.NewSource(0))) },
		func() { RandomSet(4, 5, rand.New(rand.NewSource(0))) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			bad()
		}()
	}
}

func TestRandomSet(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := RandomSet(16, 4, rng)
	if s.Size() != 4 {
		t.Fatal("wrong size")
	}
	seen := map[int]bool{}
	for _, id := range s.nodes {
		if id < 0 || id >= 16 || seen[id] {
			t.Fatal("bad random set")
		}
		seen[id] = true
	}
}

func TestPatternMetadataAndPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	if b := NewBitComplement(16); b.N() != 16 || b.Name() != "bitcomp" {
		t.Error("bitcomp metadata wrong")
	}
	if h := NewHotspot(16, 0, 0.3); h.N() != 16 || h.Name() != "hotspot" {
		t.Error("hotspot metadata wrong")
	}
	if nb := NewNeighbor(4); nb.N() != 4 || nb.Name() != "neighbor" {
		t.Error("neighbor metadata wrong")
	}
	if p := NewPermutation(4, rng); p.N() != 4 || p.Name() != "permutation" {
		t.Error("permutation metadata wrong")
	}
	for i, bad := range []func(){
		func() { NewTranspose(1) },
		func() { NewBitComplement(1) },
		func() { NewNeighbor(1) },
		func() { NewPermutation(1, rng) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("constructor %d accepted degenerate size", i)
				}
			}()
			bad()
		}()
	}
}

// TestBernoulliDrawOrder pins the arrival law: per cycle, endpoints in set
// order each draw one Float64 against rate/packetLength and a generating
// endpoint then draws its destination, so the packets equal a hand-written
// loop over the same seed.
func TestBernoulliDrawOrder(t *testing.T) {
	s := NewSet([]int{3, 9, 12, 0, 7})
	h := NewHotspot(5, 2, 0.3)
	b, err := NewBernoulli(s, h, 0.8, 4, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	type pkt struct{ src, dst int }
	var got []pkt
	for c := 0; c < 500; c++ {
		b.Cycle(func(src, dst int) { got = append(got, pkt{src, dst}) })
	}
	rng := rand.New(rand.NewSource(11))
	var want []pkt
	for c := 0; c < 500; c++ {
		for _, src := range s.nodes {
			if rng.Float64() < 0.8/4 {
				want = append(want, pkt{src, s.PickNode(h, src, rng)})
			}
		}
	}
	if len(got) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("Bernoulli drew %d packets, hand-written loop %d, or they differ", len(got), len(want))
	}
}
