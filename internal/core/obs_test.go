package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"nocsprint/internal/noc"
	"nocsprint/internal/obs"
	"nocsprint/internal/power"
	"nocsprint/internal/sprint"
	"nocsprint/internal/traffic"
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
			return s.SensitivityPoint(4, 4, sp)
		}},
		{"FaultSweep", func(sp NetSimParams) (any, error) {
			return FaultSweep(s, FaultParams{Level: 8, Cycles: 6000, Rates: []float64{10}, Sim: sp})
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
			for i, c := range cols {
				c.Finish()
				if len(c.Samples()) == 0 {
					t.Errorf("collector %d of %d has no samples", i, len(cols))
				}
			}
		})
	}
}

// TestTelemetryPricedAtSystemCorner: core prices every telemetry sample at
// the corner of the system it simulates, whatever power model the recorder
// carries. A Mid-corner sprinter's EvaluateNetwork, recorded with no power
// model, must read in each sample the network power a collector priced at
// Mid reads for the same window of the same run.
func TestTelemetryPricedAtSystemCorner(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Corner = power.Mid
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dedup, err := workload.ByName("dedup")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := obs.NewRecorder(obs.Config{Interval: 500})
	if err != nil {
		t.Fatal(err)
	}
	sim := fastSim
	sim.Obs = rec
	if _, err := s.EvaluateNetwork(dedup, NoCSprinting, sim); err != nil {
		t.Fatal(err)
	}
	cols := rec.Collectors()
	if len(cols) != 1 {
		t.Fatalf("%d collectors, want 1", len(cols))
	}
	cols[0].Finish()
	got := cols[0].Samples()

	// The same run, watched by a collector priced at Mid by hand.
	region := s.Region(s.Level(dedup, NoCSprinting))
	f := sprintFabric(region)
	net, err := noc.NewTopo(cfg.NoC, f.topo, f.alg, f.active)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := obs.NewRecorder(obs.Config{Interval: 500, Power: &obs.PowerModel{Corner: power.Mid}})
	if err != nil {
		t.Fatal(err)
	}
	col := ref.NewCollector(net, "mid", ref.Config())
	net.SetProbe(col)
	if _, err := fastSim.run(net, traffic.NewSet(region.ActiveNodes()), dedup.InjRate, fastSim.Seed); err != nil {
		t.Fatal(err)
	}
	col.Finish()
	want := col.Samples()

	if len(got) == 0 || len(got) != len(want) {
		t.Fatalf("%d samples, the Mid-priced run took %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Window != want[i].Window || got[i].PowerW != want[i].PowerW || !(got[i].PowerW > 0) {
			t.Errorf("sample %d: %g W over %d cycles, want %g W over %d priced at Mid",
				i, got[i].PowerW, got[i].Window, want[i].PowerW, want[i].Window)
		}
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
		Level:  8,
		Cycles: cycles,
		Rates:  []float64{10},
		Sim:    NetSimParams{Workers: 1, Obs: rec},
	}); err != nil {
		t.Fatal(err)
	}
	kinds := map[obs.EventKind]int{}
	for _, c := range rec.Collectors() {
		label, events := timeline(t, c)
		for _, ev := range events {
			kinds[ev.Kind]++
			if ev.Cycle < 0 || ev.Cycle > cycles {
				t.Errorf("collector %q: event %v at cycle %d outside the %d-cycle run",
					label, ev.Kind, ev.Cycle, cycles)
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

// timeline reads a collector's label and event timeline back from the JSONL
// stream it writes under -obs-out.
func timeline(t *testing.T, c *obs.Collector) (label string, events []obs.Event) {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	for dec := json.NewDecoder(&buf); dec.More(); {
		var rec struct {
			Type  string `json:"type"`
			Label string `json:"label"`
			obs.Event
		}
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		switch rec.Type {
		case "meta":
			label = rec.Label
		case "event":
			events = append(events, rec.Event)
		}
	}
	return label, events
}
