package obs

import (
	"math"
	"testing"

	"nocsprint/internal/noc"
	"nocsprint/internal/power"
	"nocsprint/internal/routing"
	"nocsprint/internal/thermal"
	"nocsprint/internal/topo"
)

func testNet(t *testing.T) *noc.Network {
	t.Helper()
	m := topo.NewMesh(4, 4)
	net, err := noc.New(noc.DefaultConfig(), routing.NewDOR(m), nil)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config (all defaults) rejected: %v", err)
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"negative interval", Config{Interval: -5}},
		{"bad corner", Config{Power: &PowerModel{Corner: power.Corner{VDD: -1, FreqHz: 1e9}}}},
		{"bad thermal model", Config{Thermal: &ThermalModel{Model: thermal.Lumped{}, SecondsPerCycle: 1e-9}}},
		{"zero seconds per cycle", Config{Thermal: &ThermalModel{Model: thermal.DefaultLumped()}}},
		{"NaN seconds per cycle", Config{Thermal: &ThermalModel{Model: thermal.DefaultLumped(), SecondsPerCycle: math.NaN()}}},
		{"infinite seconds per cycle", Config{Thermal: &ThermalModel{Model: thermal.DefaultLumped(), SecondsPerCycle: math.Inf(1)}}},
		{"negative base power", Config{Thermal: &ThermalModel{Model: thermal.DefaultLumped(), SecondsPerCycle: 1e-9, BasePowerW: -1}}},
		{"NaN base power", Config{Thermal: &ThermalModel{Model: thermal.DefaultLumped(), SecondsPerCycle: 1e-9, BasePowerW: math.NaN()}}},
		{"infinite base power", Config{Thermal: &ThermalModel{Model: thermal.DefaultLumped(), SecondsPerCycle: 1e-9, BasePowerW: math.Inf(1)}}},
		{"NaN VDD", Config{Power: &PowerModel{Corner: power.Corner{VDD: math.NaN(), FreqHz: 1e9}}}},
		{"infinite frequency", Config{Power: &PowerModel{Corner: power.Corner{VDD: 1, FreqHz: math.Inf(1)}}}},
	}
	for _, c := range cases {
		if err := c.cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestCollectorSampling drives a small deterministic load and checks the
// window bookkeeping: sample boundaries land on the interval, the last
// partial window is flushed by Finish exactly once, and per-sample counts
// sum to the network totals.
func TestCollectorSampling(t *testing.T) {
	net := testNet(t)
	rec, err := NewRecorder(Config{Interval: 100})
	if err != nil {
		t.Fatal(err)
	}
	col := rec.NewCollector(net, "unit", rec.Config())
	net.SetProbe(col)
	if col.interval != 100 || col.routers != 16 || col.label != "unit" {
		t.Fatalf("collector metadata: interval %d routers %d label %q", col.interval, col.routers, col.label)
	}
	for i := 0; i < 250; i++ {
		if i%10 == 0 {
			net.Enqueue(0, 15)
		}
		net.Step()
	}
	col.Finish()
	col.Finish() // idempotent: no duplicate partial sample
	samples := col.Samples()
	if len(samples) != 3 {
		t.Fatalf("%d samples, want 3 (two full windows + one partial)", len(samples))
	}
	wantCycles := []int64{100, 200, 250}
	wantWindows := []int64{100, 100, 50}
	var inj int64
	for i, s := range samples {
		if s.Cycle != wantCycles[i] || s.Window != wantWindows[i] {
			t.Errorf("sample %d: cycle %d window %d, want %d/%d", i, s.Cycle, s.Window, wantCycles[i], wantWindows[i])
		}
		if s.ActiveRouters != 16 {
			t.Errorf("sample %d: %d active routers, want 16", i, s.ActiveRouters)
		}
		if s.MeshUtil != s.RegionUtil {
			t.Errorf("sample %d: full mesh must have MeshUtil == RegionUtil (%g != %g)", i, s.MeshUtil, s.RegionUtil)
		}
		if len(col.RouterUtil(i)) != 16 {
			t.Errorf("sample %d: router util row has %d entries", i, len(col.RouterUtil(i)))
		}
		inj += s.InjectedFlits
	}
	if st := net.Stats(); inj != st.FlitsInjected {
		t.Errorf("sampled injected flits %d != network %d", inj, st.FlitsInjected)
	}
	// PowerW stays zero without a power model.
	if samples[0].PowerW != 0 || samples[0].TempK != 0 {
		t.Errorf("model-less sample has power %g / temp %g", samples[0].PowerW, samples[0].TempK)
	}
}

// TestCollectorPowerSeries pins the sampled power against the map-based
// reference breakdown computed from the same window deltas, priced with the
// watched network's own router model: the Table 1 router (4 VCs, 4-flit
// buffers) and one with 8 VCs and 8-flit buffers, whose leakage is larger.
func TestCollectorPowerSeries(t *testing.T) {
	deep := noc.DefaultConfig()
	deep.VCs, deep.BufferDepth = 8, 8
	for _, cfg := range []noc.Config{noc.DefaultConfig(), deep} {
		net, err := noc.New(cfg, routing.NewDOR(topo.NewMesh(4, 4)), nil)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := NewRecorder(Config{Interval: 50, Power: &PowerModel{Corner: power.Nominal}})
		if err != nil {
			t.Fatal(err)
		}
		col := rec.NewCollector(net, "power", rec.Config())
		net.SetProbe(col)

		prev := make([]noc.Events, 16)
		for id := range prev {
			prev[id] = net.RouterEvents(id)
		}
		for i := 0; i < 50; i++ {
			net.Enqueue(i%16, (i+5)%16)
			net.Step()
		}
		var delta noc.Events
		for id := 0; id < 16; id++ {
			d := net.RouterEvents(id).Sub(prev[id])
			delta.Add(d)
		}
		want, err := power.DefaultRouterParams45nm(cfg).NetworkPower(delta, 50, 16, power.Nominal)
		if err != nil {
			t.Fatal(err)
		}
		samples := col.Samples()
		if len(samples) != 1 {
			t.Fatalf("%d VCs x %d: %d samples, want 1", cfg.VCs, cfg.BufferDepth, len(samples))
		}
		if got := samples[0].PowerW; got != want.Total() || got <= 0 {
			t.Errorf("%d VCs x %d: sampled power %v, want the breakdown total %v > 0",
				cfg.VCs, cfg.BufferDepth, got, want.Total())
		}
	}
}

// TestCollectorTemperatureRises heats the die with a large base power: the
// temperature series must never fall while it heats.
func TestCollectorTemperatureRises(t *testing.T) {
	net := testNet(t)
	rec, err := NewRecorder(Config{
		Interval: 10,
		Thermal: &ThermalModel{
			Model:           thermal.DefaultLumped(),
			SecondsPerCycle: 0.01, // 10-cycle window = 0.1 s of thermal time
			BasePowerW:      60,   // steady state 378 K
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	col := rec.NewCollector(net, "thermal", rec.Config())
	net.SetProbe(col)
	for i := 0; i < 400; i++ { // heat: 4 s of thermal time
		net.Step()
	}
	samples := col.Samples()
	for i := 1; i < len(samples); i++ {
		if samples[i].TempK < samples[i-1].TempK {
			t.Fatalf("temperature fell while heating: %g after %g", samples[i].TempK, samples[i-1].TempK)
		}
	}
	if len(samples) < 2 || samples[len(samples)-1].TempK <= samples[0].TempK {
		t.Fatalf("the die did not heat over %d samples", len(samples))
	}
}

// TestAttachMidRunPrimesBaselines checks that a collector attached to a
// network that has already run measures only its own windows — the primed
// per-router baselines subtract the pre-attach history.
func TestAttachMidRunPrimesBaselines(t *testing.T) {
	net := testNet(t)
	for i := 0; i < 500; i++ {
		net.Enqueue(i%16, (i+3)%16)
		net.Step()
	}
	// Drain so no source-queued backlog injects during the observed window.
	if err := net.DrainWithBudgetCtx(nil, 50000); err != nil {
		t.Fatal(err)
	}
	pre := net.Stats().FlitsInjected
	if pre == 0 {
		t.Fatal("no pre-attach traffic")
	}
	rec, err := NewRecorder(Config{Interval: 100})
	if err != nil {
		t.Fatal(err)
	}
	col := rec.NewCollector(net, "late", rec.Config())
	net.SetProbe(col)
	for i := 0; i < 100; i++ {
		net.Step() // no new traffic: the window must be quiet
	}
	samples := col.Samples()
	if len(samples) != 1 {
		t.Fatalf("%d samples, want 1", len(samples))
	}
	if s := samples[0]; s.InjectedFlits != 0 {
		t.Errorf("late collector saw %d injected flits from before attachment", s.InjectedFlits)
	}
	// Utilization must reflect only the observed window, not history.
	for i, u := range col.RouterUtil(0) {
		if u > 1 {
			t.Errorf("router %d utilization %g > 1: baseline not primed", i, u)
		}
	}
}

func TestAttachWithInvalidConfigPanics(t *testing.T) {
	net := testNet(t)
	rec, err := NewRecorder(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("invalid derived config did not panic")
		}
	}()
	rec.NewCollector(net, "bad", Config{Interval: -1})
}
