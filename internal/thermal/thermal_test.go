package thermal

import (
	"math"
	"strings"
	"testing"

	"nocsprint/internal/floorplan"
	"nocsprint/internal/sprint"
	"nocsprint/internal/topo"
)

const (
	activeTileW = 6.45
	darkTileW   = 0.51
)

func tilePowers(active []int, plan *floorplan.Plan) []float64 {
	p := make([]float64, 16)
	for i := range p {
		p[i] = darkTileW
	}
	for _, id := range active {
		slot := id
		if plan != nil {
			slot = plan.Pos(id)
		}
		p[slot] = activeTileW
	}
	return p
}

func fullPower() []float64 {
	p := make([]float64, 16)
	for i := range p {
		p[i] = activeTileW
	}
	return p
}

// TestFig12PeakTemperatures pins the calibrated grid to the paper's
// published peaks: 358.3 K (full-sprinting), 347.79 K (4-core fine-grained,
// clustered), 343.81 K (4-core with thermal-aware floorplanning).
func TestFig12PeakTemperatures(t *testing.T) {
	cfg := DefaultGridConfig()
	m := topo.NewMesh(4, 4)
	order := sprint.ActivationOrder(m, 0, sprint.Euclidean)
	plan, err := floorplan.Thermal(m, order)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		power []float64
		want  float64
	}{
		{"full-sprinting", fullPower(), 358.3},
		{"fine-grained clustered", tilePowers(order[:4], nil), 347.79},
		{"thermal-aware floorplan", tilePowers(order[:4], plan), 343.81},
	}
	var peaks []float64
	for _, tc := range cases {
		hm, err := SteadyState(cfg, tc.power)
		if err != nil {
			t.Fatal(err)
		}
		peak, _, _ := hm.Peak()
		peaks = append(peaks, peak)
		if math.Abs(peak-tc.want) > 1.5 {
			t.Errorf("%s: peak %.2f K, paper %.2f K (tolerance 1.5 K)", tc.name, peak, tc.want)
		}
	}
	if !(peaks[0] > peaks[1] && peaks[1] > peaks[2]) {
		t.Errorf("peak ordering wrong: %v", peaks)
	}
}

func TestFullSprintHotspotInCenter(t *testing.T) {
	cfg := DefaultGridConfig()
	hm, err := SteadyState(cfg, fullPower())
	if err != nil {
		t.Fatal(err)
	}
	_, px, py := hm.Peak()
	// Peak must be away from the rim (paper: "overheated spot in the
	// center" despite uniform power).
	if px < hm.W/4 || px >= 3*hm.W/4 || py < hm.H/4 || py >= 3*hm.H/4 {
		t.Errorf("uniform-power peak at (%d,%d), expected central region of %dx%d", px, py, hm.W, hm.H)
	}
	// Corners must be cooler than the centre.
	if hm.At(0, 0) >= hm.At(hm.W/2, hm.H/2) {
		t.Error("corner not cooler than center under uniform power")
	}
}

func TestSteadyStateZeroPowerIsAmbient(t *testing.T) {
	cfg := DefaultGridConfig()
	hm, err := SteadyState(cfg, make([]float64, 16))
	if err != nil {
		t.Fatal(err)
	}
	for _, temp := range hm.T {
		if math.Abs(temp-cfg.AmbientK) > 1e-6 {
			t.Fatalf("zero power gives %.3f K, want ambient %.3f", temp, cfg.AmbientK)
		}
	}
}

func TestSteadyStateMonotoneInPower(t *testing.T) {
	cfg := DefaultGridConfig()
	p1 := tilePowers([]int{0, 1, 4, 5}, nil)
	hm1, err := SteadyState(cfg, p1)
	if err != nil {
		t.Fatal(err)
	}
	p2 := append([]float64(nil), p1...)
	for i := range p2 {
		p2[i] *= 1.5
	}
	hm2, err := SteadyState(cfg, p2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range hm1.T {
		if hm2.T[i] <= hm1.T[i] {
			t.Fatal("scaling power up did not raise every cell temperature")
		}
	}
}

func TestSteadyStateValidation(t *testing.T) {
	cfg := DefaultGridConfig()
	if _, err := SteadyState(cfg, make([]float64, 3)); err == nil {
		t.Error("wrong power-map size accepted")
	}
	for _, p := range []float64{-1, math.NaN(), math.Inf(1)} {
		bad := make([]float64, 16)
		bad[2] = p
		if _, err := SteadyState(cfg, bad); err == nil || !strings.Contains(err.Error(), "tile 2") {
			t.Errorf("power %g at tile 2: error %v, want one naming the tile", p, err)
		}
	}
	cfg.RvCell = -1
	if _, err := SteadyState(cfg, make([]float64, 16)); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestSteadyStateHeatBalance checks the solved field against the network it
// solves: at every cell the power in equals the heat leaving through the
// lateral, edge and vertical conductances, and the whole map's power leaves
// through the vertical and edge paths (lateral flows cancel in the sum).
// These are bounds, not goldens: the Gauss–Seidel tolerance leaves a few nW
// per cell and a few µW over the map, and a 0.1% error in any one
// conductance leaves microwatts per cell.
func TestSteadyStateHeatBalance(t *testing.T) {
	m := topo.NewMesh(4, 4)
	order := sprint.ActivationOrder(m, 0, sprint.Euclidean)
	plan, err := floorplan.Thermal(m, order)
	if err != nil {
		t.Fatal(err)
	}
	coarse := DefaultGridConfig()
	coarse.Sub = 3
	for _, c := range []struct {
		name  string
		cfg   GridConfig
		power []float64
	}{
		{"full", DefaultGridConfig(), fullPower()},
		{"clustered", DefaultGridConfig(), tilePowers(order[:4], nil)},
		{"floorplanned", DefaultGridConfig(), tilePowers(order[:4], plan)},
		{"one tile", DefaultGridConfig(), tilePowers([]int{6}, nil)},
		{"coarse grid", coarse, tilePowers(order[:8], nil)},
	} {
		cfg := c.cfg
		hm, err := SteadyState(cfg, c.power)
		if err != nil {
			t.Fatal(err)
		}
		var total float64
		for _, p := range c.power {
			total += p
		}
		base := cfg.AmbientK + total*cfg.RconvKperW
		gLat, gV, gEdge := 1/cfg.RlatCell, 1/cfg.RvCell, 1/cfg.RedgeCell
		per := float64(cfg.Sub * cfg.Sub)
		var worst, leaving float64
		for y := 0; y < hm.H; y++ {
			for x := 0; x < hm.W; x++ {
				temp := hm.At(x, y)
				out := (temp - base) * gV
				for _, d := range [][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
					nx, ny := x+d[0], y+d[1]
					if nx < 0 || nx >= hm.W || ny < 0 || ny >= hm.H {
						out += (temp - base) * gEdge
						leaving += (temp - base) * gEdge
						continue
					}
					out += (temp - hm.At(nx, ny)) * gLat
				}
				leaving += (temp - base) * gV
				in := c.power[(y/cfg.Sub)*cfg.W+x/cfg.Sub] / per
				worst = math.Max(worst, math.Abs(in-out))
			}
		}
		if worst > 1e-7 {
			t.Errorf("%s: largest per-cell heat residual %.3g W, want <= 1e-7 W", c.name, worst)
		}
		if math.Abs(leaving-total) > 1e-6*total {
			t.Errorf("%s: %.9g W leaves through vertical and edge paths, %.9g W goes in", c.name, leaving, total)
		}
	}
}

func TestTileMean(t *testing.T) {
	cfg := DefaultGridConfig()
	power := tilePowers([]int{0}, nil)
	hm, err := SteadyState(cfg, power)
	if err != nil {
		t.Fatal(err)
	}
	hot := hm.TileMean(0, 0, cfg.Sub)
	cold := hm.TileMean(3, 3, cfg.Sub)
	if hot <= cold {
		t.Errorf("active tile mean %.2f not hotter than dark tile %.2f", hot, cold)
	}
}

func TestLumpedSustainablePower(t *testing.T) {
	l := DefaultLumped()
	sus := l.SustainablePower()
	// Nominal single-core chip power (~25.4 W) must be sustainable; full
	// 16-core sprinting (~106 W core-side alone) must not.
	if sus < 25.4 {
		t.Errorf("sustainable power %.1f W below nominal chip power", sus)
	}
	if sus > 106 {
		t.Errorf("sustainable power %.1f W would make full sprinting sustainable", sus)
	}
	ph, err := l.SprintPhases(sus * 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if !ph.Sustainable || !math.IsInf(ph.Total(), 1) {
		t.Error("sub-TDP power should sprint forever")
	}
}

func TestSprintPhasesFullPower(t *testing.T) {
	l := DefaultLumped()
	ph, err := l.SprintPhases(106.2)
	if err != nil {
		t.Fatal(err)
	}
	if ph.Sustainable {
		t.Fatal("full sprinting should not be sustainable")
	}
	for i, d := range []float64{ph.Phase1, ph.Phase2, ph.Phase3} {
		if d <= 0 || math.IsInf(d, 1) {
			t.Fatalf("phase %d duration %v not finite positive", i+1, d)
		}
	}
	// Paper assumption: the chip sustains full sprinting for about one
	// second in the worst case.
	if total := ph.Total(); total < 0.3 || total > 3 {
		t.Errorf("full-sprint duration %.2f s, want ~1 s", total)
	}
}

func TestSprintDurationMonotoneInPower(t *testing.T) {
	l := DefaultLumped()
	prev := math.Inf(1)
	for _, p := range []float64{45, 60, 80, 106} {
		ph, err := l.SprintPhases(p)
		if err != nil {
			t.Fatal(err)
		}
		d := ph.Total()
		if ph.Sustainable {
			t.Fatalf("%g W should not be sustainable", p)
		}
		if d >= prev {
			t.Errorf("duration at %g W (%v s) not shorter than at lower power (%v s)", p, d, prev)
		}
		prev = d
	}
}

func TestSprintPhasesValidation(t *testing.T) {
	l := DefaultLumped()
	if _, err := l.SprintPhases(-1); err == nil {
		t.Error("negative power accepted")
	}
	if _, err := l.SprintPhases(math.NaN()); err == nil {
		t.Error("NaN power accepted")
	}
	if _, err := l.SprintPhases(math.Inf(1)); err == nil {
		t.Error("infinite power accepted")
	}
	bad := l
	bad.PCM.MeltK = bad.MaxK + 10
	if _, err := bad.SprintPhases(50); err == nil {
		t.Error("melt above max accepted")
	}
	bad = l
	bad.RthKperW = 0
	if _, err := bad.SprintPhases(50); err == nil {
		t.Error("zero Rth accepted")
	}
}

// TestTimelineMatchesPhases integrates the Figure 1 curve numerically and
// checks the plateau against the closed-form phase durations.
func TestTimelineMatchesPhases(t *testing.T) {
	l := DefaultLumped()
	const power = 106.2
	ph, err := l.SprintPhases(power)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := l.Timeline(power, 1e-4, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Find melt onset and completion in the trace.
	var meltStart, meltEnd float64 = -1, -1
	for _, s := range samples {
		if meltStart < 0 && s.TempK >= l.PCM.MeltK-1e-6 {
			meltStart = s.TimeS
		}
		if meltEnd < 0 && s.MeltFraction >= 1 {
			meltEnd = s.TimeS
		}
	}
	if meltStart < 0 || meltEnd < 0 {
		t.Fatal("timeline never melted the PCM")
	}
	if math.Abs(meltStart-ph.Phase1) > 0.02*ph.Phase1+1e-3 {
		t.Errorf("melt onset %.4f s vs closed-form phase 1 %.4f s", meltStart, ph.Phase1)
	}
	if math.Abs((meltEnd-meltStart)-ph.Phase2) > 0.03*ph.Phase2+1e-3 {
		t.Errorf("melt duration %.4f s vs closed-form phase 2 %.4f s", meltEnd-meltStart, ph.Phase2)
	}
	// Temperature during the plateau must hold at the melt point.
	for _, s := range samples {
		if s.TimeS > meltStart+0.01 && s.TimeS < meltEnd-0.01 {
			if math.Abs(s.TempK-l.PCM.MeltK) > 0.1 {
				t.Fatalf("temperature %.2f K off the melt plateau at t=%.3f", s.TempK, s.TimeS)
			}
		}
	}
	// The trace ends at the junction limit.
	last := samples[len(samples)-1]
	if last.TempK < l.MaxK-0.5 {
		t.Errorf("timeline ended at %.2f K before reaching MaxK %.2f", last.TempK, l.MaxK)
	}
}

func TestTimelineValidation(t *testing.T) {
	l := DefaultLumped()
	if _, err := l.Timeline(50, 0, 1, 1); err == nil {
		t.Error("zero dt accepted")
	}
	if _, err := l.Timeline(50, 1e-3, 0, 1); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := l.Timeline(50, 1e-3, 1, 0); err == nil {
		t.Error("zero sample interval accepted")
	}
	if _, err := l.Timeline(-1, 1e-3, 1, 1); err == nil {
		t.Error("negative power accepted")
	}
	if _, err := l.Timeline(math.NaN(), 1e-3, 1, 1); err == nil {
		t.Error("NaN power accepted")
	}
	for _, c := range []struct {
		name        string
		dt, horizon float64
	}{
		{"NaN dt", math.NaN(), 1},
		{"+Inf dt", math.Inf(1), 1},
		{"NaN horizon", 1e-3, math.NaN()},
		{"+Inf horizon", 1e-3, math.Inf(1)},
		{"overflowing step count", 1e-3, 1e300},
	} {
		if _, err := l.Timeline(50, c.dt, c.horizon, 1); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}
