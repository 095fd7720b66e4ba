package core

import (
	"math"
	"strings"
	"testing"

	"nocsprint/internal/power"
	"nocsprint/internal/topo"
)

func TestFig2RowsAndCrossover(t *testing.T) {
	rows, err := Fig2RouterPower(newSprinter(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d corners, want 3", len(rows))
	}
	prevShare := -1.0
	for _, r := range rows {
		share := r.Breakdown.TotalLeakage() / r.Breakdown.Total()
		if share <= prevShare {
			t.Errorf("leakage share not increasing across corners")
		}
		prevShare = share
	}
	last := rows[len(rows)-1].Breakdown
	if last.TotalLeakage() <= last.TotalDynamic() {
		t.Error("leakage should exceed dynamic at the lowest corner")
	}
}

func TestFig3RowsMatchPaperShares(t *testing.T) {
	rows, err := Fig3ChipBreakdown(newSprinter(t))
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		cores int
		share float64
	}{{4, 0.18}, {8, 0.26}, {16, 0.35}, {32, 0.42}}
	if len(rows) != len(want) {
		t.Fatalf("%d rows", len(rows))
	}
	for i, r := range rows {
		if r.Cores != want[i].cores {
			t.Fatalf("row %d cores %d", i, r.Cores)
		}
		got := r.Breakdown.Share(2) // CompNoC
		if math.Abs(got-want[i].share) > 0.025 {
			t.Errorf("%d cores: NoC share %.3f, want %.2f", r.Cores, got, want[i].share)
		}
	}
}

func TestFig4ShapesPresent(t *testing.T) {
	s := newSprinter(t)
	rows := Fig4Scaling(s)
	byName := map[string]Fig4Row{}
	for _, r := range rows {
		byName[r.Benchmark] = r
		if len(r.Cores) != len(r.NormTime) {
			t.Fatalf("%s: ragged row", r.Benchmark)
		}
		if math.Abs(r.NormTime[0]-1) > 1e-12 {
			t.Fatalf("%s: T(1) != 1", r.Benchmark)
		}
	}
	// blackscholes: monotonically decreasing.
	bs := byName["blackscholes"]
	for i := 1; i < len(bs.NormTime); i++ {
		if bs.NormTime[i] >= bs.NormTime[i-1] {
			t.Errorf("blackscholes not monotone at %d cores", bs.Cores[i])
		}
	}
	// vips: dips then rises above its minimum by 16 cores.
	v := byName["vips"]
	min := v.NormTime[0]
	for _, x := range v.NormTime {
		min = math.Min(min, x)
	}
	if !(min < v.NormTime[0] && v.NormTime[len(v.NormTime)-1] > min*1.3) {
		t.Errorf("vips curve lacks peak-then-degrade shape: %v", v.NormTime)
	}
}

func TestFig7AggregatesInBand(t *testing.T) {
	s := newSprinter(t)
	res, err := Fig7ExecTime(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 12 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	if res.AvgSpeedupNoC < 3.0 || res.AvgSpeedupNoC > 4.3 {
		t.Errorf("NoC speedup %.2f outside band (paper 3.6)", res.AvgSpeedupNoC)
	}
	if res.AvgSpeedupFull < 1.6 || res.AvgSpeedupFull > 2.6 {
		t.Errorf("full speedup %.2f outside band (paper 1.9)", res.AvgSpeedupFull)
	}
	for _, r := range res.Rows {
		if r.NoCSprint > r.FullSprint+1e-9 {
			t.Errorf("%s: NoC-sprinting slower than full-sprinting", r.Benchmark)
		}
		if r.NoCSprint > r.NonSprint {
			t.Errorf("%s: NoC-sprinting slower than non-sprinting", r.Benchmark)
		}
	}
}

func TestFig8SavingsInBand(t *testing.T) {
	s := newSprinter(t)
	res, err := Fig8CorePower(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.SavingFineGrained < 0.18 || res.SavingFineGrained > 0.33 {
		t.Errorf("fine-grained saving %.3f outside band (paper 0.255)", res.SavingFineGrained)
	}
	if res.SavingNoC < 0.50 || res.SavingNoC > 0.78 {
		t.Errorf("NoC-sprinting saving %.3f outside band (paper 0.691)", res.SavingNoC)
	}
	for _, r := range res.Rows {
		if !(r.NoCSprint <= r.FineGrained+1e-9 && r.FineGrained <= r.FullSprint+1e-9) {
			t.Errorf("%s: power ordering violated", r.Benchmark)
		}
		// blackscholes/bodytrack leave no space for gating.
		if r.Level == 16 && math.Abs(r.NoCSprint-r.FullSprint) > 1e-9 {
			t.Errorf("%s: full-level sprint should match full-sprinting power", r.Benchmark)
		}
	}
}

func TestFig9Fig10Reductions(t *testing.T) {
	s := newSprinter(t)
	res, err := Fig9Fig10Network(s, fastSim)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 12 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	if res.LatencyReduction < 0.10 || res.LatencyReduction > 0.40 {
		t.Errorf("latency reduction %.3f outside band (paper 0.245)", res.LatencyReduction)
	}
	if res.PowerSaving < 0.45 || res.PowerSaving > 0.85 {
		t.Errorf("network power saving %.3f outside band (paper 0.719)", res.PowerSaving)
	}
}

func TestFig11SweepSmall(t *testing.T) {
	s := newSprinter(t)
	params := Fig11Params{
		Rates:   []float64{0.05, 0.20},
		Samples: 2,
		Sim:     fastSim,
	}
	series, err := Fig11Sweep(s, []int{4, 8}, params)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 || series[0].Level != 4 || series[1].Level != 8 {
		t.Fatalf("series wrong: %+v", series)
	}
	for _, ser := range series {
		if len(ser.Points) != 2 {
			t.Fatalf("level %d: %d points", ser.Level, len(ser.Points))
		}
		if ser.PreSatLatencyCut <= 0 || ser.PreSatPowerCut <= 0 {
			t.Errorf("level %d: NoC-sprinting shows no pre-saturation benefit", ser.Level)
		}
	}
	// The lower sprint level saves more power (paper's second bullet).
	if series[0].PreSatPowerCut <= series[1].PreSatPowerCut {
		t.Errorf("4-core power cut %.3f not above 8-core %.3f",
			series[0].PreSatPowerCut, series[1].PreSatPowerCut)
	}
}

func TestFig12PeaksNearPaper(t *testing.T) {
	s := newSprinter(t)
	cases, err := Fig12HeatMaps(s)
	if err != nil {
		t.Fatal(err)
	}
	paper := []float64{358.3, 347.79, 343.81}
	if len(cases) != 3 {
		t.Fatalf("%d cases", len(cases))
	}
	for i, c := range cases {
		if math.Abs(c.PeakK-paper[i]) > 1.5 {
			t.Errorf("%s: peak %.2f K vs paper %.2f K", c.Name, c.PeakK, paper[i])
		}
	}
	if !(cases[0].PeakK > cases[1].PeakK && cases[1].PeakK > cases[2].PeakK) {
		t.Error("peak ordering violated")
	}
}

func TestSprintDurationsInBand(t *testing.T) {
	s := newSprinter(t)
	res, err := SprintDurations(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 12 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	if res.AvgIncrease < 0.35 || res.AvgIncrease > 0.90 {
		t.Errorf("duration increase %.3f outside band (paper 0.554)", res.AvgIncrease)
	}
	for _, r := range res.Rows {
		if r.NoCSprint < r.FullSprint-1e-9 {
			t.Errorf("%s: NoC-sprinting duration below full-sprinting", r.Benchmark)
		}
		// Full-sprinting survives about one second (the paper's worst-case
		// assumption).
		if r.FullSprint < 0.3 || r.FullSprint > 3 {
			t.Errorf("%s: full-sprint duration %.2f s implausible", r.Benchmark, r.FullSprint)
		}
	}
}

func TestGatingComparison(t *testing.T) {
	s := newSprinter(t)
	res, err := GatingComparison(s, fastSim)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 12 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	// NoC-sprinting must dominate runtime gating on savings.
	if res.SavingNoC <= res.SavingRuntime {
		t.Errorf("NoC-sprinting saving %.3f not above runtime gating %.3f",
			res.SavingNoC, res.SavingRuntime)
	}
	// Runtime gating pays a latency penalty; NoC-sprinting does not.
	if res.PenaltyRuntime <= 0 {
		t.Errorf("runtime gating shows no latency penalty (%.3f)", res.PenaltyRuntime)
	}
	for _, r := range res.Rows {
		if r.LatRuntime < r.LatNone {
			t.Errorf("%s: runtime gating faster than no gating", r.Benchmark)
		}
		if r.Level < 16 && r.PowNoC >= r.PowNone {
			t.Errorf("%s: NoC-sprinting does not cut network power", r.Benchmark)
		}
	}
}

func TestLeakageFeedbackAnalysis(t *testing.T) {
	s := newSprinter(t)
	res, err := LeakageFeedbackAnalysis(s, power.DefaultLeakageFeedback())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 16 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	// Level 1 (nominal) must be sustainable even with feedback; level 16
	// must not be sustainable either way.
	if !res.Rows[0].SustainableFB {
		t.Error("nominal operation should survive leakage feedback")
	}
	if res.Rows[15].SustainableNoFB || res.Rows[15].SustainableFB {
		t.Error("full sprinting should never be sustainable")
	}
	// Feedback can only shrink the sustainable budget.
	if res.MaxLevelFB > res.MaxLevelNoFB {
		t.Errorf("feedback grew the budget: %d > %d", res.MaxLevelFB, res.MaxLevelNoFB)
	}
	if res.MaxLevelFB < 1 || res.MaxLevelNoFB < 1 {
		t.Error("no sustainable level at all")
	}
	// Steady temperatures rise monotonically with level until runaway.
	prev := 0.0
	for _, r := range res.Rows {
		if r.WithFeedback.Runaway {
			break
		}
		if r.WithFeedback.TempK <= prev {
			t.Errorf("level %d: steady temp not increasing", r.Level)
		}
		if r.WithFeedback.TempK < r.NoFeedbackK {
			t.Errorf("level %d: feedback lowered steady temp", r.Level)
		}
		prev = r.WithFeedback.TempK
	}
	if _, err := LeakageFeedbackAnalysis(s, power.LeakageFeedback{LeakFractionAtRef: -1}); err == nil {
		t.Error("invalid feedback accepted")
	}
}

func TestFloorplanWireStudy(t *testing.T) {
	s := newSprinter(t)
	cases, err := FloorplanWireStudy(s, fastSim)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 3 {
		t.Fatalf("%d cases", len(cases))
	}
	id, plain, smart := cases[0], cases[1], cases[2]
	// Plain wires on the spread floorplan must cost latency.
	if plain.AvgLatency <= id.AvgLatency {
		t.Errorf("floorplanned plain wires latency %v not above identity %v",
			plain.AvgLatency, id.AvgLatency)
	}
	// SMART recovers the identity latency (same logical topology, 1-cycle
	// links).
	if math.Abs(smart.AvgLatency-id.AvgLatency) > 1.0 {
		t.Errorf("SMART latency %v differs from identity %v", smart.AvgLatency, id.AvgLatency)
	}
	// And the thermal benefit of the floorplan is retained.
	if plain.PeakK >= id.PeakK || smart.PeakK >= id.PeakK {
		t.Error("floorplan lost its thermal benefit")
	}
	if plain.MaxLinkCycles <= id.MaxLinkCycles {
		t.Error("floorplan should stretch some link")
	}
}

func TestScalingStudy(t *testing.T) {
	rows, err := ScalingStudy(newSprinter(t), []int{4, 6}, fastSim)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	// The network's nominal share grows with mesh size (Figure 3's trend).
	if rows[1].NoCShareNominal <= rows[0].NoCShareNominal {
		t.Errorf("NoC share did not grow with mesh size: %v", rows)
	}
	for _, r := range rows {
		if r.PowerSaving <= 0.4 {
			t.Errorf("%dx%d: network power saving %.3f too small", r.Width, r.Width, r.PowerSaving)
		}
		if r.LatencyCut <= 0 {
			t.Errorf("%dx%d: no latency cut", r.Width, r.Width)
		}
		if r.Level != r.Nodes/4 {
			t.Errorf("level wrong: %+v", r)
		}
	}
	// Savings grow with the dark fraction.
	if rows[1].PowerSaving <= rows[0].PowerSaving {
		t.Errorf("power saving did not grow with mesh size: %v", rows)
	}
}

func TestSensitivitySweep(t *testing.T) {
	rows, err := SensitivitySweep(newSprinter(t), fastSim)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("%d rows", len(rows))
	}
	byCfg := map[[2]int]SensitivityRow{}
	for _, r := range rows {
		byCfg[[2]int{r.VCs, r.BufferDepth}] = r
		if r.SaturationRate <= 0 {
			t.Errorf("vcs=%d depth=%d: no sustainable rate", r.VCs, r.BufferDepth)
		}
		if r.ZeroLoadLatency < 10 || r.ZeroLoadLatency > 60 {
			t.Errorf("vcs=%d depth=%d: zero-load latency %.1f implausible", r.VCs, r.BufferDepth, r.ZeroLoadLatency)
		}
	}
	// More buffering should not hurt saturation throughput.
	lean := byCfg[[2]int{2, 2}]
	fat := byCfg[[2]int{8, 8}]
	if fat.SaturationRate < lean.SaturationRate {
		t.Errorf("more VCs/buffers lowered saturation: %v vs %v", fat.SaturationRate, lean.SaturationRate)
	}
	// Shallow buffers stretch wormhole packets (credit round trip exceeds
	// the buffer depth), so the lean configuration runs at higher latency
	// even at low load; deeper buffering can only help, and by a bounded
	// amount.
	if fat.ZeroLoadLatency > lean.ZeroLoadLatency {
		t.Errorf("deeper buffers raised low-load latency: %v vs %v",
			fat.ZeroLoadLatency, lean.ZeroLoadLatency)
	}
	if lean.ZeroLoadLatency > 2*fat.ZeroLoadLatency {
		t.Errorf("lean low-load latency %v implausibly high vs %v",
			lean.ZeroLoadLatency, fat.ZeroLoadLatency)
	}
}

func TestDimVsDark(t *testing.T) {
	s := newSprinter(t)
	points, err := DimVsDark(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 15 {
		t.Fatalf("%d points", len(points))
	}
	dimWinSomewhere := false
	darkWinSomewhere := false
	perfByBudget := map[string]float64{}
	for _, pt := range points {
		if pt.DarkPerf <= 0 && pt.DimPerf <= 0 {
			t.Errorf("budget %.0f %s: no feasible configuration", pt.BudgetW, pt.Benchmark)
		}
		if pt.DimWins {
			dimWinSomewhere = true
		} else {
			darkWinSomewhere = true
		}
		// Performance is monotone in budget per benchmark.
		best := pt.DarkPerf
		if pt.DimPerf > best {
			best = pt.DimPerf
		}
		if prev, ok := perfByBudget[pt.Benchmark]; ok && best < prev-1e-9 {
			t.Errorf("%s: best perf dropped as budget grew", pt.Benchmark)
		}
		perfByBudget[pt.Benchmark] = best
	}
	// The study is only interesting if the winner depends on the operating
	// point — both outcomes must occur across the grid.
	if !dimWinSomewhere {
		t.Error("dim silicon never wins — crossover missing")
	}
	if !darkWinSomewhere {
		t.Error("dark silicon never wins — crossover missing")
	}
}

func TestLLCStudy(t *testing.T) {
	s := newSprinter(t)
	rows, err := LLCStudy(s, NetSimParams{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	full, remap, bypass := rows[0], rows[1], rows[2]
	// Remap loses capacity: worst L2 miss rate and AMAT.
	if remap.L2MissRate <= bypass.L2MissRate {
		t.Errorf("remap miss rate %.3f not above bypass %.3f", remap.L2MissRate, bypass.L2MissRate)
	}
	if remap.AMAT <= bypass.AMAT {
		t.Errorf("remap AMAT %.2f not above bypass %.2f", remap.AMAT, bypass.AMAT)
	}
	// Both gated options burn far less network power than the full mesh.
	if remap.NetPowerW >= full.NetPowerW || bypass.NetPowerW >= full.NetPowerW {
		t.Errorf("gating did not cut network power: full %.4f, remap %.4f, bypass %.4f",
			full.NetPowerW, remap.NetPowerW, bypass.NetPowerW)
	}
	// Bypass transfers only where expected.
	if full.BypassTransfers != 0 || remap.BypassTransfers != 0 || bypass.BypassTransfers == 0 {
		t.Errorf("bypass accounting wrong: %d/%d/%d",
			full.BypassTransfers, remap.BypassTransfers, bypass.BypassTransfers)
	}
}

func TestMean(t *testing.T) {
	if mean(nil) != 0 {
		t.Error("empty mean")
	}
	if got := mean([]float64{1, 2, 3, 4}); math.Abs(got-2.5) > 1e-9 {
		t.Errorf("mean = %v, want 2.5", got)
	}
}

// TestRunsMissingAnInputFail: a driver handed no rate ladder, no
// full-sprinting samples, no measurement window or no topology has nothing
// to measure, so it returns an error naming the missing input instead of a
// result.
func TestRunsMissingAnInputFail(t *testing.T) {
	s := newSprinter(t)
	for _, c := range []struct {
		name, want string
		run        func() (any, error)
	}{
		{"Fig11Sweep without rates", "no rates", func() (any, error) {
			return Fig11Sweep(s, []int{4}, Fig11Params{Samples: 1, Sim: fastSim})
		}},
		{"Fig11Sweep without samples", "full-sprinting samples", func() (any, error) {
			return Fig11Sweep(s, []int{4}, Fig11Params{Rates: []float64{0.1}, Sim: fastSim})
		}},
		{"Fig9Fig10Network without windows", "measurement window", func() (any, error) {
			return Fig9Fig10Network(s, NetSimParams{})
		}},
		{"SensitivitySweep without windows", "measurement window", func() (any, error) {
			return SensitivitySweep(s, NetSimParams{})
		}},
		{"TopologyStudy without rates", "no rates", func() (any, error) {
			return s.TopologyStudy(TopologyParams{Specs: []topo.Spec{topo.MeshSpec(4, 4)}, Sim: fastSim})
		}},
		{"TopologyStudy without specs", "no specs", func() (any, error) {
			return s.TopologyStudy(TopologyParams{Rates: []float64{0.1}, Sim: fastSim})
		}},
		{"FaultSweep without rates", "no rates", func() (any, error) {
			return FaultSweep(s, FaultParams{Level: 8, Cycles: 20000, Sim: NetSimParams{Workers: 1}})
		}},
	} {
		if _, err := c.run(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one naming %q", c.name, err, c.want)
		}
	}
}
