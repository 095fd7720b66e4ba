package power

import (
	"math"
	"testing"

	"nocsprint/internal/noc"
)

// fig2Config is the paper's Figure 2 router: 128-bit flits, 2 VCs per
// port, 4-flit buffers.
func fig2Config() noc.Config {
	cfg := noc.DefaultConfig()
	cfg.VCs = 2
	return cfg
}

func fig2Breakdown(t *testing.T, corner Corner) Breakdown {
	t.Helper()
	cfg := fig2Config()
	params := DefaultRouterParams45nm(cfg)
	const cycles = 1_000_000
	ev := SyntheticRouterEvents(0.4, cycles, cfg.PacketLength)
	b, err := params.RouterPower(ev, cycles, corner)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFig2NominalMagnitudes(t *testing.T) {
	b := fig2Breakdown(t, Nominal)
	total := b.Total()
	// DSENT-class 45 nm wormhole router at 0.4 flits/cycle: single-digit
	// milliwatts.
	if total < 2e-3 || total > 50e-3 {
		t.Errorf("router power %g W outside plausible 45nm range", total)
	}
	// At nominal, leakage is significant but below dynamic.
	leakShare := b.TotalLeakage() / total
	if leakShare < 0.25 || leakShare > 0.5 {
		t.Errorf("nominal leakage share %.2f outside [0.25,0.5]", leakShare)
	}
}

// TestFig2LeakageShareGrowsAsVFScaleDown is the headline of Figure 2: the
// leakage fraction increases monotonically from (1 V, 2 GHz) to (0.9 V,
// 1.5 GHz) to (0.75 V, 1 GHz), and at the lowest corner leakage exceeds
// dynamic power.
func TestFig2LeakageShareGrowsAsVFScaleDown(t *testing.T) {
	corners := []Corner{Nominal, Mid, Low}
	var prev float64 = -1
	var shares []float64
	for _, c := range corners {
		b := fig2Breakdown(t, c)
		share := b.TotalLeakage() / b.Total()
		if share <= prev {
			t.Errorf("leakage share not increasing: %v then %.3f", shares, share)
		}
		shares = append(shares, share)
		prev = share
	}
	last := fig2Breakdown(t, Low)
	if last.TotalLeakage() <= last.TotalDynamic() {
		t.Errorf("at 0.75V/1GHz leakage (%g) should exceed dynamic (%g)",
			last.TotalLeakage(), last.TotalDynamic())
	}
}

func TestDynamicScalesWithV2F(t *testing.T) {
	bNom := fig2Breakdown(t, Nominal)
	bLow := fig2Breakdown(t, Low)
	// P_dyn ∝ V²·f: (0.75² · 0.5) ≈ 0.281 of nominal.
	ratio := bLow.TotalDynamic() / bNom.TotalDynamic()
	want := 0.75 * 0.75 * 0.5
	if math.Abs(ratio-want) > 1e-9 {
		t.Errorf("dynamic scaling ratio %g, want %g", ratio, want)
	}
	// P_leak ∝ V.
	lr := bLow.TotalLeakage() / bNom.TotalLeakage()
	if math.Abs(lr-0.75) > 1e-9 {
		t.Errorf("leakage scaling ratio %g, want 0.75", lr)
	}
}

func TestRouterPowerValidation(t *testing.T) {
	cfg := fig2Config()
	params := DefaultRouterParams45nm(cfg)
	if _, err := params.RouterPower(noc.Events{}, 0, Nominal); err == nil {
		t.Error("zero cycles accepted")
	}
	if _, err := params.RouterPower(noc.Events{}, 100, Corner{VDD: 0, FreqHz: 1e9}); err == nil {
		t.Error("zero VDD accepted")
	}
	if _, err := params.RouterPower(noc.Events{}, 100, Corner{VDD: 1, FreqHz: 0}); err == nil {
		t.Error("zero frequency accepted")
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := params.RouterPower(noc.Events{}, 100, Corner{VDD: bad, FreqHz: 1e9}); err == nil {
			t.Errorf("VDD %g accepted", bad)
		}
		if _, err := params.RouterPower(noc.Events{}, 100, Corner{VDD: 1, FreqHz: bad}); err == nil {
			t.Errorf("frequency %g accepted", bad)
		}
	}
}

func TestIdleRouterIsLeakageAndClockOnly(t *testing.T) {
	cfg := noc.DefaultConfig()
	params := DefaultRouterParams45nm(cfg)
	b, err := params.RouterPower(noc.Events{}, 1000, Nominal)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range Components() {
		if c != ClockTree && b.DynamicW[c] != 0 {
			t.Errorf("idle router has dynamic %v power in %v", b.DynamicW[c], c)
		}
	}
	if b.TotalLeakage() == 0 || b.DynamicW[ClockTree] == 0 {
		t.Error("idle router should still leak and clock")
	}
}

func TestNetworkPowerScalesWithActiveRouters(t *testing.T) {
	cfg := noc.DefaultConfig()
	params := DefaultRouterParams45nm(cfg)
	ev := SyntheticRouterEvents(0.4, 10000, cfg.PacketLength)
	b4, err := params.NetworkPower(ev, 10000, 4, Nominal)
	if err != nil {
		t.Fatal(err)
	}
	b16, err := params.NetworkPower(ev, 10000, 16, Nominal)
	if err != nil {
		t.Fatal(err)
	}
	r := b16.TotalLeakage() / b4.TotalLeakage()
	if math.Abs(r-4) > 1e-9 {
		t.Errorf("leakage should scale 4x with router count, got %g", r)
	}
	if b16.Total() <= b4.Total() {
		t.Error("more routers should cost more power")
	}
	if _, err := params.NetworkPower(ev, 10000, -1, Nominal); err == nil {
		t.Error("negative router count accepted")
	}
}

// TestFig3NoCShares pins the chip model to the paper's published NoC power
// shares at nominal operation: 18 %, 26 %, 35 %, 42 % for 4/8/16/32 cores
// (±2.5 points of slack for our refit).
func TestFig3NoCShares(t *testing.T) {
	params := DefaultChipParams()
	want := map[int]float64{4: 0.18, 8: 0.26, 16: 0.35, 32: 0.42}
	for n, share := range want {
		b, err := params.ChipPower(1, 0, n-1, n)
		if err != nil {
			t.Fatal(err)
		}
		got := b.Share(CompNoC)
		if math.Abs(got-share) > 0.025 {
			t.Errorf("%d cores: NoC share %.3f, want %.2f±0.025", n, got, share)
		}
	}
}

func TestFig3CoreShareShrinks(t *testing.T) {
	params := DefaultChipParams()
	prev := 2.0
	for _, n := range []int{4, 8, 16, 32} {
		b, err := params.ChipPower(1, 0, n-1, n)
		if err != nil {
			t.Fatal(err)
		}
		s := b.Share(CompCore)
		if s >= prev {
			t.Errorf("core share should shrink as dark silicon grows: %d cores = %.3f", n, s)
		}
		prev = s
	}
}

func TestChipPowerValidation(t *testing.T) {
	params := DefaultChipParams()
	if _, err := params.ChipPower(0, 0, 0, 0); err == nil {
		t.Error("empty chip accepted")
	}
	if _, err := params.ChipPower(1, 0, 3, 5); err == nil {
		t.Error("more NoC tiles than tiles accepted")
	}
	if _, err := params.ChipPower(1, 0, 3, -1); err == nil {
		t.Error("negative NoC tiles accepted")
	}
	for _, c := range [][3]int{{-1, 2, 2}, {2, -1, 2}, {2, 2, -1}} {
		if _, err := params.ChipPower(c[0], c[1], c[2], 1); err == nil {
			t.Errorf("core counts %v accepted", c)
		}
	}
}

// TestSprintCorePower: a sprint's core power orders gated below idle below
// full, and each core adds its own state's watts in turn.
func TestSprintCorePower(t *testing.T) {
	p := DefaultChipParams()
	core := func(active, idle, gated int) float64 {
		b, err := p.ChipPower(active, idle, gated, 16)
		if err != nil {
			t.Fatal(err)
		}
		return b[CompCore]
	}
	full := core(16, 0, 0)
	fineIdle := core(4, 12, 0)
	gated := core(4, 0, 12)
	if !(gated < fineIdle && fineIdle < full) {
		t.Errorf("core power ordering wrong: gated %.1f, idle %.1f, full %.1f", gated, fineIdle, full)
	}
	// 4 active of 16 with gating ≈ 4/16 of full power.
	if math.Abs(gated/full-0.25) > 0.01 {
		t.Errorf("gated 4-core ratio %.3f, want ~0.25", gated/full)
	}
	var want float64
	for i := 0; i < 16; i++ {
		switch {
		case i < 3:
			want += p.CoreActiveW
		case i < 8:
			want += p.CoreIdleW
		default:
			want += p.CoreGatedW
		}
	}
	if got := core(3, 5, 8); got != want {
		t.Errorf("3 active, 5 idle, 8 gated: core power %v, want the per-core sum %v", got, want)
	}
}

func TestStringers(t *testing.T) {
	if CompNoC.String() != "NoC" || CompL2.String() != "L2" {
		t.Error("chip component names wrong")
	}
	if Buffer.String() != "buffer" || Link.String() != "link" || ClockTree.String() != "clock" {
		t.Error("router component names wrong")
	}
	if len(Components()) != 6 || len(ChipComponents()) != 5 {
		t.Error("component enumerations wrong size")
	}
	if Gating.String() != "gating" {
		t.Error("gating component name wrong")
	}
	if ChipComponent(9).String() == "" || Component(9).String() == "" {
		t.Error("out-of-range stringers empty")
	}
}

func TestNetworkPowerRuntimeGated(t *testing.T) {
	cfg := noc.DefaultConfig()
	params := DefaultRouterParams45nm(cfg)
	ev := SyntheticRouterEvents(0.1, 10000, cfg.PacketLength)
	full, err := params.NetworkPower(ev, 10000, 16, Nominal)
	if err != nil {
		t.Fatal(err)
	}
	// Fully on, zero wakeups: identical to the ungated model.
	same, err := params.NetworkPowerRuntimeGated(ev, 10000, 16, 16*10000, 0, Nominal)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(same.Total()-full.Total()) > 1e-12 {
		t.Errorf("fully-on gated model %v != ungated %v", same.Total(), full.Total())
	}
	// Half the router-cycles gated: leakage shrinks toward retention.
	half, err := params.NetworkPowerRuntimeGated(ev, 10000, 16, 8*10000, 100, Nominal)
	if err != nil {
		t.Fatal(err)
	}
	if half.TotalLeakage() >= full.TotalLeakage() {
		t.Error("gating should cut leakage")
	}
	wantLeak := full.TotalLeakage() * (0.5 + 0.5*params.GatedRetention)
	if math.Abs(half.TotalLeakage()-wantLeak) > 1e-12 {
		t.Errorf("leakage %v, want %v", half.TotalLeakage(), wantLeak)
	}
	if half.DynamicW[Gating] <= 0 {
		t.Error("wakeups should cost energy")
	}
	// Validation.
	if _, err := params.NetworkPowerRuntimeGated(ev, 10000, 16, -1, 0, Nominal); err == nil {
		t.Error("negative on-cycles accepted")
	}
	if _, err := params.NetworkPowerRuntimeGated(ev, 10000, 16, 17*10000, 0, Nominal); err == nil {
		t.Error("on-cycles above capacity accepted")
	}
	if _, err := params.NetworkPowerRuntimeGated(ev, 10000, 16, 0, -1, Nominal); err == nil {
		t.Error("negative wakeups accepted")
	}
}

func TestCoreActiveAt(t *testing.T) {
	p := DefaultChipParams()
	nom, err := p.CoreActiveAt(Nominal)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(nom-p.CoreActiveW) > 1e-12 {
		t.Errorf("nominal corner power %v != CoreActiveW %v", nom, p.CoreActiveW)
	}
	low, err := p.CoreActiveAt(Low)
	if err != nil {
		t.Fatal(err)
	}
	want := p.CoreActiveW*p.CoreDynFraction*0.75*0.75*0.5 + p.CoreActiveW*(1-p.CoreDynFraction)*0.75
	if math.Abs(low-want) > 1e-12 {
		t.Errorf("low corner power %v, want %v", low, want)
	}
	if low >= nom {
		t.Error("lower corner should cost less power")
	}
	if _, err := p.CoreActiveAt(Corner{}); err == nil {
		t.Error("invalid corner accepted")
	}
}
