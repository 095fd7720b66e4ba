package noc

import (
	"testing"

	"nocsprint/internal/routing"
	"nocsprint/internal/topo"
	"nocsprint/internal/traffic"
)

// drainTestParams is a moderate-load run that needs a nonzero drain phase.
func drainTestParams(drain int) SimParams {
	return SimParams{
		InjectionRate: 0.3,
		WarmupCycles:  200,
		MeasureCycles: 800,
		DrainCycles:   drain,
		Seed:          42,
	}
}

func runDrainTest(t *testing.T, drain int) Result {
	t.Helper()
	cfg := DefaultConfig()
	m := topo.NewMesh(cfg.Width, cfg.Height)
	net, err := New(cfg, routing.NewDOR(m), nil)
	if err != nil {
		t.Fatal(err)
	}
	set := traffic.NewSet(topo.AllNodes(cfg.Nodes()))
	res, err := RunSynthetic(net, set, traffic.NewUniform(cfg.Nodes()), drainTestParams(drain))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDrainExactBudgetNotSaturated is the regression test for the drain-loop
// off-by-one: a run whose measured packets finish draining on the final
// permitted cycle must not be reported saturated. It first measures how many
// drain ticks the run actually needs (under a generous budget), then reruns
// the identical simulation with exactly that budget.
func TestDrainExactBudgetNotSaturated(t *testing.T) {
	p := drainTestParams(0)
	generous := runDrainTest(t, 30000)
	if generous.Saturated {
		t.Fatal("reference run saturated; pick a lower injection rate")
	}
	needed := int(generous.Cycles) - p.WarmupCycles - p.MeasureCycles
	if needed < 1 {
		t.Fatalf("reference run needed no drain ticks (%d); test cannot discriminate", needed)
	}

	exact := runDrainTest(t, needed)
	if exact.Saturated {
		t.Errorf("run with exact drain budget %d misreported saturated", needed)
	}
	if exact.Cycles != generous.Cycles {
		t.Errorf("exact-budget run simulated %d cycles, reference %d", exact.Cycles, generous.Cycles)
	}

	// One tick short must still flag saturation: the budget genuinely binds.
	short := runDrainTest(t, needed-1)
	if !short.Saturated {
		t.Errorf("run with insufficient drain budget %d not reported saturated", needed-1)
	}
}
