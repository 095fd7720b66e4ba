package sprint

import (
	"testing"

	"nocsprint/internal/topo"
)

func newGov(t *testing.T, level int) *Governor {
	t.Helper()
	g, err := NewGovernor(topo.NewMesh(4, 4), 0, level, Euclidean, GovernorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGovernorPermanentFaultReformsRegion(t *testing.T) {
	g := newGov(t, 8)
	victim := g.Region().ActiveNodes()[3] // an in-region, non-master node
	r, changed, err := g.PermanentFault(victim, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("in-region permanent fault reported no change")
	}
	if r.Active(victim) {
		t.Fatalf("failed node %d still active after repair", victim)
	}
	if r.Level() < 1 || r.Level() > 8 {
		t.Fatalf("repaired level %d outside [1,8]", r.Level())
	}
	if len(r.ActiveNodes()) != r.Level() {
		t.Fatalf("region has %d nodes at level %d", len(r.ActiveNodes()), r.Level())
	}
	if !r.IsConvex() {
		t.Fatal("repaired region not convex")
	}
	if g.CountEvents(GovRepair) != 1 {
		t.Fatalf("repair events %d, want 1", g.CountEvents(GovRepair))
	}

	// Idempotent: a second fault on the same node changes nothing.
	_, changed, err = g.PermanentFault(victim, 200)
	if err != nil || changed {
		t.Fatalf("repeat fault: changed=%v err=%v, want no-op", changed, err)
	}
}

func TestGovernorFaultOutsideRegionStillReforms(t *testing.T) {
	// A fault on a dark node must not shrink the region: Algorithm 1 simply
	// skips it when (if ever) growing past it.
	g := newGov(t, 4)
	dark := -1
	for id := 0; id < 16; id++ {
		if !g.Region().Active(id) {
			dark = id
			break
		}
	}
	before := g.Region().ActiveNodes()
	r, _, err := g.PermanentFault(dark, 10)
	if err != nil {
		t.Fatal(err)
	}
	after := r.ActiveNodes()
	if len(before) != len(after) {
		t.Fatalf("region size changed %d -> %d on out-of-region fault", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("region changed on out-of-region fault: %v -> %v", before, after)
		}
	}
}

func TestGovernorMasterElection(t *testing.T) {
	g := newGov(t, 8)
	r, changed, err := g.PermanentFault(0, 50) // kill the master
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("master death reported no change")
	}
	if g.Master() == 0 {
		t.Fatal("dead master still in office")
	}
	// Survivors closest to node 0 are 1 and 4 (distance² = 1); ties go to
	// the lower id.
	if g.Master() != 1 {
		t.Fatalf("elected master %d, want 1", g.Master())
	}
	if r.Master() != 1 {
		t.Fatalf("region master %d, want 1", r.Master())
	}
	if g.CountEvents(GovMasterElection) != 1 {
		t.Fatalf("election events %d, want 1", g.CountEvents(GovMasterElection))
	}
}

func TestGovernorTransientBackoffAndResume(t *testing.T) {
	g := newGov(t, 8)
	victim := g.Region().ActiveNodes()[2]

	r, changed, err := g.TransientFault(victim, 100)
	if err != nil || !changed {
		t.Fatalf("transient fault: changed=%v err=%v", changed, err)
	}
	if r.Active(victim) {
		t.Fatal("transiently-down node still in region")
	}
	if got := g.PendingResume(163); got != -1 {
		t.Fatalf("resume due at 163 for node %d, want none before the 64-cycle backoff", got)
	}
	if got := g.PendingResume(164); got != victim {
		t.Fatalf("PendingResume(164) = %d, want %d", got, victim)
	}

	// First attempt finds it still sick: the wait doubles to 128 cycles.
	if _, changed, err := g.TryResume(victim, 164, false); err != nil || changed {
		t.Fatalf("failed resume: changed=%v err=%v", changed, err)
	}
	if got := g.PendingResume(291); got != -1 {
		t.Fatalf("retry due at 291 (node %d), want a delay of 128", got)
	}
	if got := g.PendingResume(292); got != victim {
		t.Fatalf("PendingResume(292) = %d, want %d", got, victim)
	}

	// Second attempt succeeds: node re-enters the region.
	r, changed, err = g.TryResume(victim, 292, true)
	if err != nil || !changed {
		t.Fatalf("healthy resume: changed=%v err=%v", changed, err)
	}
	if !r.Active(victim) {
		t.Fatal("resumed node not back in region")
	}
	if g.PendingResume(1<<40) != -1 {
		t.Fatal("resume still pending after success")
	}
	if g.CountEvents(GovResumed) != 1 || g.CountEvents(GovResumeFailed) != 1 {
		t.Fatalf("event log: resumed=%d failed=%d, want 1/1",
			g.CountEvents(GovResumed), g.CountEvents(GovResumeFailed))
	}
}

// TestGovernorDeclaresDeadAfterRetryBudget pins the whole resume schedule: a
// node that stays sick is retried 64, 128, 256 and 512 cycles after the
// fault and each failed attempt, and the fourth failure declares it dead.
func TestGovernorDeclaresDeadAfterRetryBudget(t *testing.T) {
	g := newGov(t, 8)
	victim := g.Region().ActiveNodes()[1]
	if _, _, err := g.TransientFault(victim, 0); err != nil {
		t.Fatal(err)
	}
	cycle := int64(0)
	for i, wait := range []int64{64, 128, 256, 512} {
		if g.CountEvents(GovDeclaredDead) != 0 {
			t.Fatalf("declared dead before attempt %d", i)
		}
		cycle += wait
		if node := g.PendingResume(cycle - 1); node != -1 {
			t.Fatalf("attempt %d: node %d due at cycle %d, before its %d-cycle wait", i, node, cycle-1, wait)
		}
		if node := g.PendingResume(cycle); node != victim {
			t.Fatalf("attempt %d: pending %d at cycle %d, want %d", i, node, cycle, victim)
		}
		if _, _, err := g.TryResume(victim, cycle, false); err != nil {
			t.Fatal(err)
		}
	}
	if g.PendingResume(1<<40) != -1 {
		t.Fatal("resume still scheduled after retry budget exhausted")
	}
	if g.CountEvents(GovDeclaredDead) != 1 {
		t.Fatalf("declared-dead events %d, want 1", g.CountEvents(GovDeclaredDead))
	}
	// A later permanent fault on the same node is absorbed silently.
	if _, changed, err := g.PermanentFault(victim, cycle+1); err != nil || changed {
		t.Fatalf("fault on declared-dead node: changed=%v err=%v", changed, err)
	}
}

func TestGovernorLinkFaultRetiresFartherEndpoint(t *testing.T) {
	g := newGov(t, 8)
	// Link 1-2 (both relative to master 0): node 2 is farther and must go.
	r, changed, err := g.LinkFault(1, 2, 10)
	if err != nil || !changed {
		t.Fatalf("link fault: changed=%v err=%v", changed, err)
	}
	if r.Active(2) {
		t.Fatal("farther endpoint 2 still active")
	}
	if !r.Active(1) {
		t.Fatal("nearer endpoint 1 was retired")
	}
	// Same link again: farther endpoint already down, nearer one goes too.
	r, _, err = g.LinkFault(1, 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	if r.Active(1) {
		t.Fatal("endpoint 1 survived a second fault on a dead-ended link")
	}
	// Third time: both endpoints down, nothing to do.
	if _, changed, err := g.LinkFault(1, 2, 30); err != nil || changed {
		t.Fatalf("link fault with both endpoints down: changed=%v err=%v", changed, err)
	}
}

func TestGovernorThermalTripDegrades(t *testing.T) {
	g := newGov(t, 8)
	var r *Region
	for i, cycle := range []int64{500, 510} {
		var changed bool
		var err error
		r, changed, err = g.ThermalTrip(cycle)
		if err != nil || !changed {
			t.Fatalf("thermal trip %d: changed=%v err=%v", i, changed, err)
		}
	}
	if g.level != 6 || r.Level() != 6 {
		t.Fatalf("level after two trips: governor %d region %d, want 6", g.level, r.Level())
	}
	if g.CountEvents(GovDegrade) != 2 {
		t.Fatalf("degrade events %d, want 2", g.CountEvents(GovDegrade))
	}
	// Trips bottom out at level 1.
	for i := 0; i < 5; i++ {
		if _, _, err := g.ThermalTrip(600 + int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if g.level != 1 {
		t.Fatalf("level %d after repeated trips, want 1", g.level)
	}
	if _, changed, _ := g.ThermalTrip(9000); changed {
		t.Fatal("trip at level 1 reported a change")
	}
}

func TestGovernorSurvivesCascadingFaults(t *testing.T) {
	// Kill 15 of 16 nodes: the governor must degrade gracefully all the way
	// to a single-node region and never produce an invalid one.
	g := newGov(t, 8)
	for id := 0; id < 15; id++ {
		r, _, err := g.PermanentFault(id, int64(id))
		if err != nil {
			t.Fatalf("fault %d: %v", id, err)
		}
		if !r.IsConvex() {
			t.Fatalf("after killing %d nodes: region not convex", id+1)
		}
		if len(r.ActiveNodes()) < 1 {
			t.Fatalf("after killing %d nodes: empty region", id+1)
		}
	}
	r := g.Region()
	if len(r.ActiveNodes()) != 1 || r.ActiveNodes()[0] != 15 || g.Master() != 15 {
		t.Fatalf("last survivor region %v master %d, want node 15", r.ActiveNodes(), g.Master())
	}
	// The last node has no one left to fail over to.
	if _, _, err := g.PermanentFault(15, 99); err == nil {
		t.Fatal("killing the last survivor did not error")
	}
}

func TestGovernorValidateShrinksLevel(t *testing.T) {
	// A validator that rejects regions larger than 3 nodes forces reform to
	// shrink below the target level.
	cfg := GovernorConfig{Validate: func(r *Region) error {
		if len(r.ActiveNodes()) > 3 {
			return errTooBig
		}
		return nil
	}}
	if _, err := NewGovernor(topo.NewMesh(4, 4), 0, 8, Euclidean, cfg); err == nil {
		t.Fatal("initial region violating Validate accepted")
	}
	g, err := NewGovernor(topo.NewMesh(4, 4), 0, 3, Euclidean, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The governor wants level 3; after a fault the re-formed region must
	// still pass the validator.
	r, _, err := g.PermanentFault(g.Region().ActiveNodes()[1], 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.ActiveNodes()) > 3 {
		t.Fatalf("reformed region %v violates validator", r.ActiveNodes())
	}
}

var errTooBig = &validateErr{"region too big"}

type validateErr struct{ s string }

func (e *validateErr) Error() string { return e.s }

func TestGovernorRejectsBadInputs(t *testing.T) {
	if _, _, err := newGov(t, 4).PermanentFault(99, 0); err == nil {
		t.Error("fault outside mesh accepted")
	}
	if _, _, err := newGov(t, 4).LinkFault(3, 3, 0); err == nil {
		t.Error("self-loop link fault accepted")
	}
	if _, _, err := newGov(t, 4).TryResume(5, 0, true); err == nil {
		t.Error("resume with nothing pending accepted")
	}
}

func TestNewRegionOverMatchesNewRegionWhenHealthy(t *testing.T) {
	m := topo.NewMesh(4, 4)
	for level := 1; level <= 16; level++ {
		healthy := func(int) bool { return true }
		over, err := NewRegionOver(m, 0, level, Euclidean, healthy)
		if err != nil {
			t.Fatalf("level %d: %v", level, err)
		}
		ref := NewRegion(m, 0, level, Euclidean)
		a, b := over.ActiveNodes(), ref.ActiveNodes()
		if len(a) != len(b) {
			t.Fatalf("level %d: %v vs %v", level, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("level %d: %v vs %v", level, a, b)
			}
		}
	}
	if _, err := NewRegionOver(m, 0, 1, Euclidean, func(id int) bool { return id != 0 }); err == nil {
		t.Fatal("dead master accepted")
	}
	if _, err := NewRegionOver(m, 99, 1, Euclidean, func(int) bool { return true }); err == nil {
		t.Fatal("out-of-mesh master accepted")
	}
	if _, err := NewRegionOver(m, 0, 17, Euclidean, func(int) bool { return true }); err == nil {
		t.Fatal("level above survivor count accepted")
	}
}
