// Package floorplan implements the paper's thermal-aware floorplanning
// heuristic (Algorithms 3 and 4): a design-time remapping of logical mesh
// nodes to physical grid slots that keeps the logical connectivity (and thus
// the sprinting process and CDOR) untouched while physically spreading nodes
// that are likely to sprint together, lowering peak temperature.
package floorplan

import (
	"fmt"
	"math"
	"slices"

	"nocsprint/internal/topo"
)

// Plan is a bijection between logical mesh nodes and physical grid slots.
// Logical node l occupies physical slot Pos(l); the physical grid has the
// same dimensions as the logical mesh.
type Plan struct {
	pos []int // pos[logical] = physical slot
}

// Thermal implements Algorithm 3: it walks the logical mesh breadth-first
// from the master node (the head of order, which must be an Algorithm 1
// activation list) and places each node at the free physical slot that
// maximises the weighted sum of Euclidean distances to already-placed nodes
// (Algorithm 4). The weight of each distance is the inverse logical Hamming
// distance: logically-distant pairs rarely sprint together, so they may sit
// physically close, while logically-close pairs (which sprint together) are
// pushed apart.
//
// The master is pinned to physical slot equal to its own logical id, keeping
// the memory-controller corner fixed.
func Thermal(m *topo.Mesh, order []int) (*Plan, error) {
	n := m.Nodes()
	if len(order) != n {
		return nil, fmt.Errorf("floorplan: order has %d entries, mesh has %d nodes", len(order), n)
	}
	seen := make([]bool, n)
	for _, id := range order {
		if id < 0 || id >= n || seen[id] {
			return nil, fmt.Errorf("floorplan: order is not a permutation of node ids")
		}
		seen[id] = true
	}

	master := order[0]
	// rank[id] = position of id in the activation order; used to order the
	// BFS queue "based on List L" as Algorithm 3 specifies.
	rank := make([]int, n)
	for i, id := range order {
		rank[id] = i
	}

	p := &Plan{pos: make([]int, n)}
	for i := range p.pos {
		p.pos[i] = -1
	}
	k := newKernel(m)
	placed := make([]int, 0, n) // logical nodes already placed (set S)
	enqueued := make([]bool, n) // logical nodes already queued or placed

	place := func(logical, slot int) {
		p.pos[logical] = slot
		k.take(slot)
		placed = append(placed, logical)
	}

	place(master, master)
	enqueued[master] = true

	queue := make([]int, 0, n)
	pushNeighbors := func(id int) {
		// Collect unexplored logical neighbours, then insert in activation-
		// list order (ascending rank) to follow "based on List L".
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
		place(rk, k.maxWeightedDistance(placed, p.pos, rk))
		pushNeighbors(rk)
	}
	if len(placed) != n {
		// A mesh is connected, so BFS must reach every node.
		return nil, fmt.Errorf("floorplan: placed %d of %d nodes", len(placed), n)
	}
	return p, nil
}

// kernel holds Algorithm 4's tables for one Thermal call. Logical nodes and
// physical slots share the mesh's row-major ids, so one coordinate table
// serves both.
type kernel struct {
	coord []topo.Coord // coord[id]: the coordinate of node or slot id
	root  []float64    // root[d2] = math.Sqrt(float64(d2)), up to the squared diagonal
	free  []int        // free physical slots (set S'), ascending
	freeC []topo.Coord // freeC[i] = coord[free[i]]
	sums  []float64    // sums[i]: the objective of slot free[i], rebuilt each step
}

// newKernel builds m's tables with every slot free.
func newKernel(m *topo.Mesh) *kernel {
	n, w, h := m.Nodes(), m.Width(), m.Height()
	k := &kernel{
		coord: make([]topo.Coord, n),
		root:  make([]float64, (w-1)*(w-1)+(h-1)*(h-1)+1),
		free:  make([]int, n),
		sums:  make([]float64, n),
	}
	for id := range n {
		k.coord[id], k.free[id] = m.Coord(id), id
	}
	k.freeC = slices.Clone(k.coord)
	for d2 := range k.root {
		k.root[d2] = math.Sqrt(float64(d2))
	}
	return k
}

// take removes slot from the free list, keeping it ascending.
func (k *kernel) take(slot int) {
	i, _ := slices.BinarySearch(k.free, slot)
	k.free = slices.Delete(k.free, i, i+1)
	k.freeC = slices.Delete(k.freeC, i, i+1)
}

// maxWeightedDistance is Algorithm 4: among free physical slots, return the
// one maximising Σ_j w_kj · d(slot, Pos(Rj)) over placed logical nodes Rj,
// with w_kj = 1 / HammingLogical(Rk, Rj) and d the physical Euclidean
// distance. Ties break toward the lowest slot index for determinism.
//
// A step costs |placed|·|free| multiply-adds, so a whole plan costs about
// n³/6. Each slot's sum adds the same w·d products to 0.0 in the same order,
// the order of placed, as a loop over slots with a loop over placed inside
// it would, so the result is that loop's bit for bit. The loops are swapped
// so that each placed node's weight and position are computed once per
// step and the free slots' independent sums accumulate side by side.
func (k *kernel) maxWeightedDistance(placed []int, pos []int, rk int) int {
	freeC, root := k.freeC, k.root
	sums := k.sums[:len(freeC)]
	clear(sums)
	ck := k.coord[rk]
	for _, rj := range placed {
		w := 1.0 / float64(ck.Hamming(k.coord[rj]))
		pc := k.coord[pos[rj]]
		for i, c := range freeC {
			d := root[c.EuclideanSq(pc)]
			sums[i] += w * d
		}
	}
	best, bestSum := -1, -1.0
	for i, sum := range sums {
		if sum > bestSum {
			bestSum, best = sum, i
		}
	}
	return k.free[best]
}

// Pos returns the physical slot of logical node l.
func (p *Plan) Pos(l int) int { return p.pos[l] }
