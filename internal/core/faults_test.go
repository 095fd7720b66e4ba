package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"nocsprint/internal/fault"
	"nocsprint/internal/sprint"
)

// fastFaults keeps per-test runtime low while still exercising repairs,
// drops, and the thermal trip.
func fastFaults(check bool, workers int) FaultParams {
	return FaultParams{
		Level:  8,
		Cycles: 6000,
		Rates:  []float64{3, 10},
		Sim:    NetSimParams{Check: check, Workers: workers},
	}
}

// TestFaultSweepDeterministic: same seed means bit-identical results, at any
// worker count and with the invariant checker on or off.
func TestFaultSweepDeterministic(t *testing.T) {
	s := newSprinter(t)
	serial, err := FaultSweep(s, fastFaults(true, 1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := FaultSweep(s, fastFaults(true, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("worker count changed results:\nserial   %+v\nparallel %+v", serial, parallel)
	}
	unchecked, err := FaultSweep(s, fastFaults(false, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, unchecked) {
		t.Fatalf("attaching the checker changed results:\nchecked   %+v\nunchecked %+v", serial, unchecked)
	}
}

// TestFaultSweepAcceptance asserts the headline properties of the
// experiment: faults actually cost capacity and traffic, every run ends with
// a convex surviving region, and the checker sees zero violations through
// all reconfigurations.
func TestFaultSweepAcceptance(t *testing.T) {
	s := newSprinter(t)
	points, err := FaultSweep(s, fastFaults(true, 0))
	if err != nil {
		t.Fatal(err)
	}
	var sawLoss bool
	var totalDropped int64
	for _, pt := range points {
		if pt.Faults == 0 {
			t.Errorf("rate %g scheduled no faults", pt.Rate)
		}
		if pt.Availability <= 0 || pt.Availability > 1 {
			t.Errorf("rate %g: availability %g outside (0,1]", pt.Rate, pt.Availability)
		}
		if pt.Availability < 1 {
			sawLoss = true
		}
		if pt.Delivered == 0 {
			t.Errorf("rate %g delivered nothing", pt.Rate)
		}
		if !pt.FinalConvex {
			t.Errorf("rate %g: surviving region not convex", pt.Rate)
		}
		if pt.FinalLevel < 1 {
			t.Errorf("rate %g: final level %d", pt.Rate, pt.FinalLevel)
		}
		if pt.Violations != 0 {
			t.Errorf("rate %g: %d invariant violations", pt.Rate, pt.Violations)
		}
		totalDropped += pt.Dropped
	}
	if !sawLoss {
		t.Error("no sweep point lost any availability despite permanent faults")
	}
	if totalDropped == 0 {
		t.Error("no packets dropped across the whole sweep")
	}
}

// TestFaultRunScriptedSchedule drives one run with a hand-written schedule
// and checks the governor's visible decisions: master election after the
// master dies, thermal degrade, transient resume.
func TestFaultRunScriptedSchedule(t *testing.T) {
	s := newSprinter(t)
	p := FaultParams{Level: 8, Cycles: 4000, Sim: NetSimParams{Check: true}}
	// Kill the master at 500; a short transient at 1000 that heals; a trip
	// at 2000. Node 9 is inside the initial level-8 region.
	sched, err := fault.Parse("perm:0@500\ntrans:9@1000+200\ntrip@2000", s.mesh.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	pt, err := s.FaultRun(sched, p, 77)
	if err != nil {
		t.Fatal(err)
	}
	if pt.FinalMaster == 0 {
		t.Error("dead master still in office at end of run")
	}
	if pt.Elections != 1 {
		t.Errorf("%d master elections, want 1", pt.Elections)
	}
	if pt.Degrades != 1 {
		t.Errorf("%d degrades, want 1", pt.Degrades)
	}
	if pt.Resumed != 1 {
		t.Errorf("%d resumes, want 1 (transient heals within the run)", pt.Resumed)
	}
	if pt.DeclaredDead != 0 {
		t.Errorf("%d declared dead, want 0", pt.DeclaredDead)
	}
	// The trip caps the target at 7; losing the corner master constrains
	// which convex regions the new master can grow, so the realised level
	// may be smaller still — but never zero, and never above the target.
	if pt.FinalLevel < 1 || pt.FinalLevel > 7 {
		t.Errorf("final level %d outside [1,7]", pt.FinalLevel)
	}
	if !pt.FinalConvex {
		t.Error("surviving region not convex")
	}
	if pt.Availability >= 1 {
		t.Errorf("availability %g, want < 1 after a permanent fault", pt.Availability)
	}
	if pt.Violations != 0 {
		t.Errorf("%d invariant violations", pt.Violations)
	}
}

// TestFaultRunNoFaultsFullAvailability: an empty schedule keeps the region
// whole — availability exactly 1, nothing dropped, no governor events.
func TestFaultRunNoFaultsFullAvailability(t *testing.T) {
	s := newSprinter(t)
	sched, err := fault.New(s.mesh.Nodes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := s.FaultRun(sched, FaultParams{Level: 8, Cycles: 2000, Sim: NetSimParams{Check: true}}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Availability != 1 {
		t.Errorf("availability %g without faults, want exactly 1", pt.Availability)
	}
	if pt.Dropped != 0 || pt.OfferedDropped != 0 {
		t.Errorf("dropped %d/%d packets without faults", pt.Dropped, pt.OfferedDropped)
	}
	if pt.Repairs != 0 || pt.Elections != 0 || pt.Degrades != 0 {
		t.Errorf("governor acted without faults: %+v", pt)
	}
	if pt.FinalLevel != 8 || pt.FinalMaster != 0 {
		t.Errorf("final level %d master %d, want 8/0", pt.FinalLevel, pt.FinalMaster)
	}
}

// TestFaultRunOneNodeRegion: a thermal trip at level 2 leaves a one-node
// region, which has no one to talk to; the run offers it no traffic and
// drains what was already in flight.
func TestFaultRunOneNodeRegion(t *testing.T) {
	s := newSprinter(t)
	sched, err := fault.Parse("trip@500", s.mesh.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	pt, err := s.FaultRun(sched, FaultParams{Level: 2, Cycles: 2000, Sim: NetSimParams{Check: true}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if pt.FinalLevel != 1 || pt.Degrades != 1 {
		t.Errorf("final level %d after %d degrades, want level 1 after 1", pt.FinalLevel, pt.Degrades)
	}
	if pt.Delivered == 0 || pt.OfferedDropped != 0 {
		t.Errorf("delivered %d, refused %d offers; want traffic before the trip and no refused offers", pt.Delivered, pt.OfferedDropped)
	}
}

// TestFaultRunAbort: a cancelled abort context stops the run before its
// first step with an error naming the abort and wrapping the context's.
func TestFaultRunAbort(t *testing.T) {
	s := newSprinter(t)
	sched, err := fault.New(s.mesh.Nodes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = s.FaultRun(sched, FaultParams{Level: 8, Cycles: 2000, Sim: NetSimParams{Abort: ctx}}, 5)
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "aborted") {
		t.Fatalf("err = %v, want an abort wrapping context.Canceled", err)
	}
}

func TestFaultRunRejectsBadLevel(t *testing.T) {
	s := newSprinter(t)
	sched, err := fault.New(s.mesh.Nodes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.FaultRun(sched, FaultParams{Level: 1}, 1); err == nil {
		t.Error("level 1 accepted (needs at least 2 nodes for traffic)")
	}
	if _, err := s.FaultRun(sched, FaultParams{Level: 99}, 1); err == nil {
		t.Error("level above mesh size accepted")
	}
}

func TestFaultMixSurvivable(t *testing.T) {
	for total := 0; total <= 40; total++ {
		perm, trans, links := faultMix(total, 16)
		if perm < 0 || trans < 0 || links < 0 {
			t.Fatalf("total %d: negative mix %d/%d/%d", total, perm, trans, links)
		}
		if perm+trans+2*links >= 16 {
			t.Fatalf("total %d: mix %d/%d/%d can retire the whole mesh", total, perm, trans, links)
		}
		if total >= 1 && perm+trans+links == 0 {
			t.Fatalf("total %d produced no faults", total)
		}
	}
}

// TestCDORValidatorRejectsBrokenRegion: the governor's routing validation
// hook accepts healthy convex regions and is wired into repair.
func TestCDORValidator(t *testing.T) {
	s := newSprinter(t)
	validate := s.cdorValidator()
	for _, level := range []int{1, 2, 4, 8, 16} {
		r := sprint.NewRegion(s.mesh, s.cfg.Master, level, s.cfg.Metric)
		if err := validate(r); err != nil {
			t.Errorf("level %d region rejected: %v", level, err)
		}
	}
}
