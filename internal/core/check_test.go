package core

import (
	"reflect"
	"testing"

	"nocsprint/internal/noc"
	"nocsprint/internal/workload"
)

// fastCheckedSim returns short simulation windows for the self-validation
// tests; Check toggles the invariant checker.
func fastCheckedSim(check bool) NetSimParams {
	return NetSimParams{Warmup: 300, Measure: 1000, Drain: 10000, Workers: 1, Check: check}
}

// TestSweepDriversSelfValidateWithZeroDrift runs one point of each
// simulator-driven experiment with the invariant checker on and off. The
// checked run enforces all five invariant classes (any violation panics with
// a snapshot), and the results must be bit-identical to the unchecked run —
// the acceptance criterion that checking never perturbs the science.
func TestSweepDriversSelfValidateWithZeroDrift(t *testing.T) {
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
		{"EvaluateNetwork/full-sprinting", func(sp NetSimParams) (any, error) {
			return s.EvaluateNetwork(dedup, FullSprinting, sp)
		}},
		{"EvaluateNetwork/NoC-sprinting", func(sp NetSimParams) (any, error) {
			return s.EvaluateNetwork(dedup, NoCSprinting, sp)
		}},
		{"EvaluateNetwork/fine-grained", func(sp NetSimParams) (any, error) {
			return s.EvaluateNetwork(dedup, FineGrained, sp)
		}},
		{"Fig11Sweep", func(sp NetSimParams) (any, error) {
			return Fig11Sweep(s, []int{4}, Fig11Params{Rates: []float64{0.15}, Samples: 2, Sim: sp})
		}},
		{"SensitivityPoint", func(sp NetSimParams) (any, error) {
			return SensitivityPoint(4, 4, sp)
		}},
		{"ScalingStudy", func(sp NetSimParams) (any, error) {
			return ScalingStudy([]int{4}, sp)
		}},
		{"GatingComparison", func(sp NetSimParams) (any, error) {
			return GatingComparison(s, noc.DefaultGatingConfig(), sp)
		}},
		{"FloorplanWireStudy", func(sp NetSimParams) (any, error) {
			return FloorplanWireStudy(s, sp)
		}},
	}
	for _, d := range drivers {
		d := d
		t.Run(d.name, func(t *testing.T) {
			t.Parallel()
			plain, err := d.run(fastCheckedSim(false))
			if err != nil {
				t.Fatalf("unchecked run: %v", err)
			}
			checked, err := d.run(fastCheckedSim(true))
			if err != nil {
				t.Fatalf("checked run: %v", err)
			}
			if !reflect.DeepEqual(plain, checked) {
				t.Fatalf("invariant checker changed the result:\nwithout: %+v\nwith:    %+v", plain, checked)
			}
		})
	}
}

// TestLLCStudySelfValidates runs the closed-loop cache study under the
// checker: the request/response protocol over a gated network must also
// uphold every invariant.
func TestLLCStudySelfValidates(t *testing.T) {
	if testing.Short() {
		t.Skip("closed-loop cache study is too slow for -short")
	}
	s := newSprinter(t)
	run := func(check bool) []LLCRow {
		rows, err := LLCStudy(s, LLCParams{
			WorkingSetLines: 200, SharedLines: 32, AccessesPerCore: 300, Sim: NetSimParams{Check: check},
		})
		if err != nil {
			t.Fatalf("LLCStudy(check=%v): %v", check, err)
		}
		return rows
	}
	if plain, checked := run(false), run(true); !reflect.DeepEqual(plain, checked) {
		t.Fatalf("invariant checker changed LLC study results:\nwithout: %+v\nwith:    %+v", plain, checked)
	}
}
