package core

import (
	"reflect"
	"strings"
	"testing"

	"nocsprint/internal/obs"
	"nocsprint/internal/sprint"
	"nocsprint/internal/workload"
)

// TestObsRecorderZeroDriftAcrossDrivers is the core-layer leg of the
// telemetry zero-drift guarantee: every simulator-driven experiment must
// return bit-identical results with and without a recorder attached, while
// the recorder itself must come back non-empty — proof the hooks were live,
// not silently skipped.
func TestObsRecorderZeroDriftAcrossDrivers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-driven sweep points are too slow for -short")
	}
	s := newSprinter(t)
	dedup, err := workload.ByName("dedup")
	if err != nil {
		t.Fatal(err)
	}

	drivers := []struct {
		name string
		run  func(sp NetSimParams) (any, error)
	}{
		{"EvaluateNetwork/NoC-sprinting", func(sp NetSimParams) (any, error) {
			return s.EvaluateNetwork(dedup, NoCSprinting, sp)
		}},
		{"Fig11Sweep", func(sp NetSimParams) (any, error) {
			return Fig11Sweep(s, []int{4}, Fig11Params{Rates: []float64{0.15}, Samples: 2, Sim: sp})
		}},
		{"SensitivityPoint", func(sp NetSimParams) (any, error) {
			return SensitivityPoint(4, 4, sp)
		}},
		{"FaultSweep", func(sp NetSimParams) (any, error) {
			return FaultSweep(s, FaultParams{Cycles: 6000, Rates: []float64{10}, Sim: sp})
		}},
	}
	for _, d := range drivers {
		d := d
		t.Run(d.name, func(t *testing.T) {
			t.Parallel()
			sim := func() NetSimParams {
				return NetSimParams{Warmup: 300, Measure: 1000, Drain: 10000, Workers: 1}
			}
			plain, err := d.run(sim())
			if err != nil {
				t.Fatalf("unobserved run: %v", err)
			}
			rec, err := obs.NewRecorder(obs.Config{Interval: 500})
			if err != nil {
				t.Fatal(err)
			}
			sp := sim()
			sp.Obs = rec
			observed, err := d.run(sp)
			if err != nil {
				t.Fatalf("observed run: %v", err)
			}
			if !reflect.DeepEqual(plain, observed) {
				t.Fatalf("telemetry recorder changed the result:\nwithout: %+v\nwith:    %+v", plain, observed)
			}
			cols := rec.Collectors()
			if len(cols) == 0 {
				t.Fatal("recorder collected nothing: the driver never attached it")
			}
			for _, c := range cols {
				c.Finish()
				if len(c.Samples()) == 0 {
					t.Errorf("collector %q has no samples", c.Label())
				}
			}
		})
	}
}

// TestFaultSweepEmitsEventTimeline checks the fault driver's event side: a
// sweep with guaranteed fault arrivals must leave fault events and sprint
// level changes on the timeline, stamped within the simulated window.
func TestFaultSweepEmitsEventTimeline(t *testing.T) {
	s := newSprinter(t)
	rec, err := obs.NewRecorder(obs.Config{Interval: 1000})
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 6000
	if _, err := FaultSweep(s, FaultParams{
		Cycles: cycles,
		Rates:  []float64{10},
		Sim:    NetSimParams{Workers: 1, Obs: rec},
	}); err != nil {
		t.Fatal(err)
	}
	kinds := map[obs.EventKind]int{}
	for _, c := range rec.Collectors() {
		for _, ev := range c.Events() {
			kinds[ev.Kind]++
			if ev.Cycle < 0 || ev.Cycle > cycles {
				t.Errorf("collector %q: event %v at cycle %d outside the %d-cycle run",
					c.Label(), ev.Kind, ev.Cycle, cycles)
			}
		}
	}
	if kinds[obs.EventFault] == 0 {
		t.Error("no fault events on the timeline despite a 10x fault-rate sweep")
	}
	if kinds[obs.EventSprintLevel] == 0 {
		t.Error("no sprint-level changes on the timeline despite repairs")
	}
}

// TestGovernorKindsReachTimeline: FaultRun files governor event kind k on
// the timeline as obs.EventRepair + k, so every named governor kind must
// land on the telemetry kind of its own name.
func TestGovernorKindsReachTimeline(t *testing.T) {
	for k := sprint.GovRepair; !strings.HasPrefix(k.String(), "GovernorEventKind("); k++ {
		if got := obs.EventRepair + obs.EventKind(k); got.String() != k.String() {
			t.Errorf("governor kind %q reaches the timeline as %q", k, got)
		}
	}
}
