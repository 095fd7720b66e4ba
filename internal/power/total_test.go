package power

import (
	"strings"
	"testing"

	"nocsprint/internal/noc"
)

func testRouterParams() RouterParams {
	return DefaultRouterParams45nm(noc.DefaultConfig())
}

// TestNetworkPowerTotalMatchesBreakdown pins the alloc-free fast path against
// the map-based reference: for every corner, router count, and load level the
// two must agree bit-for-bit, because the telemetry samples it produces are
// compared byte-for-byte against golden files.
func TestNetworkPowerTotalMatchesBreakdown(t *testing.T) {
	p := testRouterParams()
	const cycles = 10000
	corners := map[string]Corner{"nominal": Nominal, "mid": Mid, "low": Low}
	for name, corner := range corners {
		for _, routers := range []int{0, 1, 5, 16, 64} {
			for _, rate := range []float64{0, 0.05, 0.4, 1.0} {
				events := SyntheticRouterEvents(rate*float64(routers), cycles, 5)
				want, err := p.NetworkPower(events, cycles, routers, corner)
				if err != nil {
					t.Fatal(err)
				}
				got, err := p.NetworkPowerTotal(events, cycles, routers, corner)
				if err != nil {
					t.Fatal(err)
				}
				if got != want.Total() {
					t.Errorf("%s corner, %d routers, rate %g: fast total %v != breakdown total %v",
						name, routers, rate, got, want.Total())
				}
			}
		}
	}
}

func TestNetworkPowerTotalRejectsBadInputs(t *testing.T) {
	p := testRouterParams()
	events := SyntheticRouterEvents(0.4, 1000, 5)
	cases := []struct {
		name    string
		cycles  int64
		routers int
		corner  Corner
	}{
		{"negative routers", 1000, -1, Nominal},
		{"zero cycles", 0, 16, Nominal},
		{"negative cycles", -5, 16, Nominal},
		{"zero VDD", 1000, 16, Corner{VDD: 0, FreqHz: 2e9}},
		{"zero frequency", 1000, 16, Corner{VDD: 1.0, FreqHz: 0}},
	}
	for _, c := range cases {
		if _, err := p.NetworkPowerTotal(events, c.cycles, c.routers, c.corner); err == nil {
			t.Errorf("%s: fast path accepted", c.name)
		}
		// The reference path must reject the same inputs.
		if _, err := p.NetworkPower(events, c.cycles, c.routers, c.corner); err == nil {
			t.Errorf("%s: reference path accepted", c.name)
		}
	}
}

// TestBreakdownTotalsAreSumOfParts checks Total/TotalDynamic/TotalLeakage
// against a manual fixed-enum-order sum over every component, across a real
// event profile at every corner.
func TestBreakdownTotalsAreSumOfParts(t *testing.T) {
	p := testRouterParams()
	for _, corner := range []Corner{Nominal, Mid, Low} {
		b, err := p.NetworkPower(SyntheticRouterEvents(6.4, 10000, 5), 10000, 16, corner)
		if err != nil {
			t.Fatal(err)
		}
		var dyn, leak float64
		for _, c := range Components() {
			dyn += b.DynamicW[c]
			leak += b.LeakageW[c]
		}
		if b.TotalDynamic() != dyn || b.TotalLeakage() != leak {
			t.Errorf("VDD %g: totals (%g dyn, %g leak) != component sums (%g, %g)",
				corner.VDD, b.TotalDynamic(), b.TotalLeakage(), dyn, leak)
		}
		if b.Total() != b.TotalDynamic()+b.TotalLeakage() {
			t.Errorf("VDD %g: Total %g != dynamic %g + leakage %g",
				corner.VDD, b.Total(), b.TotalDynamic(), b.TotalLeakage())
		}
		if b.Total() <= 0 {
			t.Errorf("VDD %g: non-positive network power %g", corner.VDD, b.Total())
		}
	}
}

// TestChipBreakdownAcrossAllLevels sweeps every sprint level under both
// schemes and checks the chip breakdown's internal consistency: the total is
// the sum of its parts, shares sum to one, and component magnitudes move the
// way the scheme says they should.
func TestChipBreakdownAcrossAllLevels(t *testing.T) {
	p := DefaultChipParams()
	const n = 16
	for level := 1; level <= n; level++ {
		for _, gateRest := range []bool{false, true} {
			b, err := p.ChipPower(SprintStates(n, level, gateRest), level)
			if err != nil {
				t.Fatal(err)
			}
			var sum, shares float64
			for _, c := range ChipComponents() {
				sum += b[c]
				shares += b.Share(c)
			}
			if b.Total() != sum {
				t.Errorf("level %d gated=%v: Total %g != component sum %g", level, gateRest, b.Total(), sum)
			}
			if shares < 0.999999 || shares > 1.000001 {
				t.Errorf("level %d gated=%v: shares sum to %g", level, gateRest, shares)
			}
			// Gating the idle cores must never cost power.
			if gateRest {
				idle, err := p.ChipPower(SprintStates(n, level, false), level)
				if err != nil {
					t.Fatal(err)
				}
				if level < n && b.Total() >= idle.Total() {
					t.Errorf("level %d: gated chip %g W >= idle chip %g W", level, b.Total(), idle.Total())
				}
			}
		}
	}
	if (ChipBreakdown{}).Share(CompNoC) != 0 {
		t.Error("share of an empty breakdown not 0")
	}
}

// TestComponentNames covers the String/MarshalText identity for every enum in
// the package, including the out-of-range fallbacks.
func TestComponentNames(t *testing.T) {
	for _, c := range Components() {
		text, err := c.MarshalText()
		if err != nil || string(text) != c.String() || c.String() == "" {
			t.Errorf("router component %d: MarshalText %q / String %q / err %v", c, text, c.String(), err)
		}
	}
	for _, c := range ChipComponents() {
		text, err := c.MarshalText()
		if err != nil || string(text) != c.String() || c.String() == "" {
			t.Errorf("chip component %d: MarshalText %q / String %q / err %v", c, text, c.String(), err)
		}
	}
	for _, s := range []CoreState{CoreActive, CoreIdle, CoreGated} {
		if s.String() == "" || strings.Contains(s.String(), "CoreState") {
			t.Errorf("core state %d stringifies as %q", s, s)
		}
	}
	if !strings.Contains(Component(99).String(), "99") ||
		!strings.Contains(ChipComponent(99).String(), "99") ||
		!strings.Contains(CoreState(99).String(), "99") {
		t.Error("out-of-range enum String() lost the raw value")
	}
}
