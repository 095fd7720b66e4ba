// Package traffic provides the synthetic traffic patterns used to exercise
// the NoC simulator (uniform random, transpose, bit-complement, hotspot,
// nearest-neighbour, fixed permutation), helpers to map a pattern onto an
// arbitrary subset of mesh nodes — which is how sprint regions and the
// paper's "randomly mapped" full-sprinting baseline are driven — and the
// Bernoulli arrival process that offers the load.
package traffic

import (
	"fmt"
	"math/rand"
)

// Pattern chooses a destination for each injected packet. Implementations
// are defined over the index space 0..n-1 of an ordered node list; the Set
// type maps indices back to mesh node ids.
type Pattern interface {
	// Pick returns the destination index for a packet injected at source
	// index src (0 <= src < N()). Pick never returns src for patterns that
	// can avoid self-traffic.
	Pick(src int, rng *rand.Rand) int
	// N returns the number of endpoints the pattern is defined over.
	N() int
	// Name identifies the pattern in reports.
	Name() string
}

// Uniform is uniform-random traffic: each packet picks a destination
// uniformly among the other endpoints.
type Uniform struct {
	n int
}

// NewUniform returns uniform-random traffic over n endpoints (n >= 2).
func NewUniform(n int) *Uniform {
	if n < 2 {
		panic(fmt.Sprintf("traffic: uniform needs >= 2 endpoints, got %d", n))
	}
	return &Uniform{n: n}
}

// Pick implements Pattern.
func (u *Uniform) Pick(src int, rng *rand.Rand) int {
	d := rng.Intn(u.n - 1)
	if d >= src {
		d++
	}
	return d
}

// N implements Pattern.
func (u *Uniform) N() int { return u.n }

// Name implements Pattern.
func (u *Uniform) Name() string { return "uniform" }

// Transpose sends index (treated as a w×w matrix entry) to its transpose;
// diagonal endpoints fall back to uniform-random.
type Transpose struct {
	w int
	u *Uniform
}

// NewTranspose returns matrix-transpose traffic over a w×w index grid.
func NewTranspose(w int) *Transpose {
	if w < 2 {
		panic("traffic: transpose needs w >= 2")
	}
	return &Transpose{w: w, u: NewUniform(w * w)}
}

// Pick implements Pattern.
func (t *Transpose) Pick(src int, rng *rand.Rand) int {
	x, y := src%t.w, src/t.w
	dst := x*t.w + y
	if dst == src {
		return t.u.Pick(src, rng)
	}
	return dst
}

// N implements Pattern.
func (t *Transpose) N() int { return t.w * t.w }

// Name implements Pattern.
func (t *Transpose) Name() string { return "transpose" }

// BitComplement sends index i to (n-1)-i.
type BitComplement struct {
	n int
	u *Uniform
}

// NewBitComplement returns bit-complement traffic over n endpoints.
func NewBitComplement(n int) *BitComplement {
	if n < 2 {
		panic("traffic: bit-complement needs >= 2 endpoints")
	}
	return &BitComplement{n: n, u: NewUniform(n)}
}

// Pick implements Pattern.
func (b *BitComplement) Pick(src int, rng *rand.Rand) int {
	dst := b.n - 1 - src
	if dst == src {
		return b.u.Pick(src, rng)
	}
	return dst
}

// N implements Pattern.
func (b *BitComplement) N() int { return b.n }

// Name implements Pattern.
func (b *BitComplement) Name() string { return "bitcomp" }

// Hotspot sends a fraction of traffic to one hot endpoint (the master node
// in sprint scenarios, where the memory controller lives) and the rest
// uniformly.
type Hotspot struct {
	n        int
	hot      int
	fraction float64
	u        *Uniform
}

// NewHotspot returns hotspot traffic over n endpoints where each packet
// targets endpoint hot with probability fraction, else uniform-random.
func NewHotspot(n, hot int, fraction float64) *Hotspot {
	if n < 2 || hot < 0 || hot >= n {
		panic("traffic: bad hotspot parameters")
	}
	if fraction < 0 || fraction > 1 {
		panic("traffic: hotspot fraction outside [0,1]")
	}
	return &Hotspot{n: n, hot: hot, fraction: fraction, u: NewUniform(n)}
}

// Pick implements Pattern.
func (h *Hotspot) Pick(src int, rng *rand.Rand) int {
	if src != h.hot && rng.Float64() < h.fraction {
		return h.hot
	}
	return h.u.Pick(src, rng)
}

// N implements Pattern.
func (h *Hotspot) N() int { return h.n }

// Name implements Pattern.
func (h *Hotspot) Name() string { return "hotspot" }

// Neighbor sends each packet to the next endpoint (i+1 mod n), modelling
// streaming pipeline traffic.
type Neighbor struct {
	n int
}

// NewNeighbor returns nearest-neighbour ring traffic over n endpoints.
func NewNeighbor(n int) *Neighbor {
	if n < 2 {
		panic("traffic: neighbor needs >= 2 endpoints")
	}
	return &Neighbor{n: n}
}

// Pick implements Pattern.
func (p *Neighbor) Pick(src int, _ *rand.Rand) int { return (src + 1) % p.n }

// N implements Pattern.
func (p *Neighbor) N() int { return p.n }

// Name implements Pattern.
func (p *Neighbor) Name() string { return "neighbor" }

// Permutation sends each endpoint's packets to a fixed randomly-drawn
// partner (a derangement when possible).
type Permutation struct {
	perm []int
}

// NewPermutation returns a fixed random permutation pattern over n
// endpoints drawn from rng.
func NewPermutation(n int, rng *rand.Rand) *Permutation {
	if n < 2 {
		panic("traffic: permutation needs >= 2 endpoints")
	}
	perm := rng.Perm(n)
	// Resolve fixed points by swapping with a neighbour so no endpoint
	// talks to itself.
	for i, p := range perm {
		if p == i {
			j := (i + 1) % n
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	return &Permutation{perm: perm}
}

// Pick implements Pattern.
func (p *Permutation) Pick(src int, _ *rand.Rand) int { return p.perm[src] }

// N implements Pattern.
func (p *Permutation) N() int { return len(p.perm) }

// Name implements Pattern.
func (p *Permutation) Name() string { return "permutation" }

// Set maps a pattern's index space onto concrete mesh node ids. It is how
// the same uniform-random pattern drives a 4-node sprint region, an 8-node
// region, or the paper's full-sprinting baseline where k communicating
// cores are scattered randomly over the full 16-node mesh.
type Set struct {
	nodes []int
	index map[int]int
}

// NewSet returns a Set over the given node ids (which must be distinct).
func NewSet(nodes []int) *Set {
	s := &Set{nodes: append([]int(nil), nodes...), index: make(map[int]int, len(nodes))}
	for i, id := range s.nodes {
		if _, dup := s.index[id]; dup {
			panic(fmt.Sprintf("traffic: duplicate node %d in set", id))
		}
		s.index[id] = i
	}
	return s
}

// RandomSet draws k distinct node ids from the n mesh nodes using rng —
// the paper's random mapping for the full-sprinting baseline (averaged over
// ten samples in Fig. 11).
func RandomSet(n, k int, rng *rand.Rand) *Set {
	if k < 1 || k > n {
		panic(fmt.Sprintf("traffic: cannot draw %d of %d nodes", k, n))
	}
	return NewSet(rng.Perm(n)[:k])
}

// Size returns the number of endpoints.
func (s *Set) Size() int { return len(s.nodes) }

// Index returns the pattern index of node id, or -1 if the node is not in
// the set.
func (s *Set) Index(id int) int {
	if i, ok := s.index[id]; ok {
		return i
	}
	return -1
}

// Bernoulli is the open-loop arrival process of every synthetic driver:
// each cycle, every endpoint of a set independently generates a packet with
// probability rate/packetLength, its destination drawn from a pattern over
// the set.
type Bernoulli struct {
	set     *Set
	pattern Pattern
	prob    float64
	rng     *rand.Rand
}

// NewBernoulli returns the process offering rate flits/cycle per endpoint of
// set in packets of packetLength flits, drawing from rng. The pattern must
// span the set, packetLength must be positive, and rate must lie in
// [0, packetLength] (at most one packet per endpoint per cycle).
func NewBernoulli(set *Set, pattern Pattern, rate float64, packetLength int, rng *rand.Rand) (*Bernoulli, error) {
	if pattern.N() != set.Size() {
		return nil, fmt.Errorf("traffic: pattern endpoints %d != set size %d", pattern.N(), set.Size())
	}
	if packetLength < 1 {
		return nil, fmt.Errorf("traffic: packet length %d < 1", packetLength)
	}
	prob := rate / float64(packetLength)
	if !(prob >= 0 && prob <= 1) { // a NaN rate fails both comparisons
		return nil, fmt.Errorf("traffic: injection rate %g outside [0, %d] flits/cycle/node", rate, packetLength)
	}
	return &Bernoulli{set: set, pattern: pattern, prob: prob, rng: rng}, nil
}

// Cycle draws one cycle of arrivals: for each endpoint in set order one
// rng.Float64 decides whether it generates a packet, and a generating
// endpoint then draws its destination, so a seed fixes the packet sequence.
// emit receives each packet's source and destination node ids.
func (b *Bernoulli) Cycle(emit func(src, dst int)) {
	for i, src := range b.set.nodes {
		if b.rng.Float64() < b.prob {
			emit(src, b.set.nodes[b.pattern.Pick(i, b.rng)])
		}
	}
}

// PickNode draws a destination node id for a packet injected at node src
// using pattern p over this set. It panics if src is not in the set or the
// pattern size mismatches the set size.
func (s *Set) PickNode(p Pattern, src int, rng *rand.Rand) int {
	if p.N() != s.Size() {
		panic(fmt.Sprintf("traffic: pattern over %d endpoints used with set of %d", p.N(), s.Size()))
	}
	i := s.Index(src)
	if i < 0 {
		panic(fmt.Sprintf("traffic: source node %d not in set", src))
	}
	return s.nodes[p.Pick(i, rng)]
}
