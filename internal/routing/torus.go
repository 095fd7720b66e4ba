package routing

import (
	"fmt"

	"nocsprint/internal/topo"
)

// TorusDOR is dimension-order routing on a 2D torus: the X ring first,
// taking the shorter way around (ties broken toward East), then the Y ring
// (ties toward South). Each ring can wrap through its dateline, so the
// algorithm carries the classic dateline VC policy: class 0 while the
// remaining path on the current ring still crosses the wraparound link,
// class 1 after (or when it never does). Because the class can only move
// 0 -> 1 along a path and node indices grow monotonically within each
// (direction, class) set, the extended channel-dependency graph is acyclic;
// the property tests verify this per instance.
type TorusDOR struct {
	t *topo.Torus
}

// NewTorusDOR returns shortest-way dimension-order routing for t.
func NewTorusDOR(t *topo.Torus) *TorusDOR { return &TorusDOR{t: t} }

// Name implements Algorithm.
func (a *TorusDOR) Name() string { return fmt.Sprintf("torus-DOR(%dx%d)", a.t.Width(), a.t.Height()) }

// NextPort implements Algorithm.
func (a *TorusDOR) NextPort(cur, dst int) (int, error) {
	if err := a.check(cur, dst); err != nil {
		return topo.Local, err
	}
	w, h := a.t.Width(), a.t.Height()
	x, y := cur%w, cur/w
	tx, ty := dst%w, dst/w
	if x != tx {
		if ringForward(x, tx, w) {
			return topo.East, nil
		}
		return topo.West, nil
	}
	if y != ty {
		if ringForward(y, ty, h) {
			return topo.South, nil
		}
		return topo.North, nil
	}
	return topo.Local, nil
}

// VCClasses implements VCPolicy.
func (a *TorusDOR) VCClasses() int { return 2 }

// VCClass implements VCPolicy: the dateline class of the ring currently
// being resolved.
func (a *TorusDOR) VCClass(cur, dst int) int {
	w, h := a.t.Width(), a.t.Height()
	x, y := cur%w, cur/w
	tx, ty := dst%w, dst/w
	if x != tx {
		return ringClass(x, tx, w)
	}
	if y != ty {
		return ringClass(y, ty, h)
	}
	return 0
}

func (a *TorusDOR) check(cur, dst int) error {
	if cur < 0 || cur >= a.t.Nodes() || dst < 0 || dst >= a.t.Nodes() {
		return fmt.Errorf("routing: torus-DOR pair %d->%d outside %s", cur, dst, a.t.Name())
	}
	return nil
}

// ringForward reports whether the shorter way from c to t on an n-ring is
// in the increasing-index direction (ties go forward).
func ringForward(c, t, n int) bool {
	d := t - c
	if d < 0 {
		d += n
	}
	return 2*d <= n
}

// ringClass is the dateline VC class of the channel a packet at index c
// takes toward t on an n-ring: 0 while the remaining path still wraps past
// index 0, 1 once it no longer does. The class of any packet can only
// transition 0 -> 1 (at the wraparound hop), which breaks the ring's
// channel-dependency cycle (Dally & Seitz datelines).
func ringClass(c, t, n int) int {
	wraps := false
	if ringForward(c, t, n) {
		wraps = t < c
	} else {
		wraps = t > c
	}
	if wraps {
		return 0
	}
	return 1
}

var _ Algorithm = (*TorusDOR)(nil)
var _ VCPolicy = (*TorusDOR)(nil)
