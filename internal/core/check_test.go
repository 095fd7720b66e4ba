package core

import (
	"reflect"
	"testing"

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
			return GatingComparison(s, sp)
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

// BenchmarkCheckedSweep times the invariant checker on a dark chip: a
// serial Fig. 11 slice on a 16x16 mesh (levels 4 and 16, rates 0.05, 0.15
// and 0.30, one full-sprinting sample, default windows), unchecked and
// checked. At level 16, 240 of the 256 routers are dark, so the checked
// run's extra time shows whether the audit and the hop judging scale with
// the work or with the chip.
func BenchmarkCheckedSweep(b *testing.B) {
	cfg := DefaultConfig()
	cfg.NoC.Width, cfg.NoC.Height = 16, 16
	cfg.Grid.W, cfg.Grid.H = 16, 16
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		check bool
	}{{"unchecked", false}, {"checked", true}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := Fig11Sweep(s, []int{4, 16}, Fig11Params{
					Rates:   []float64{0.05, 0.15, 0.30},
					Samples: 1,
					Sim:     NetSimParams{Workers: 1, Check: c.check},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
