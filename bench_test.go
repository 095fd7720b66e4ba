// Package nocsprint_test is the benchmark harness: one benchmark per table
// and figure of the paper's evaluation (regenerating the result and
// reporting it as custom metrics), ablation benchmarks for the design
// choices called out in DESIGN.md, and microbenchmarks of the hot paths.
//
// Run with:
//
//	go test -bench=. -benchmem
package nocsprint_test

import (
	"math/rand"
	"testing"

	"nocsprint/internal/cache"
	"nocsprint/internal/core"
	"nocsprint/internal/floorplan"
	"nocsprint/internal/mesh"
	"nocsprint/internal/noc"
	"nocsprint/internal/power"
	"nocsprint/internal/routing"
	"nocsprint/internal/sprint"
	"nocsprint/internal/thermal"
	"nocsprint/internal/topo"
	"nocsprint/internal/traffic"
	"nocsprint/internal/workload"
)

func newSprinter(b *testing.B) *core.Sprinter {
	b.Helper()
	s, err := core.New(core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// benchSim keeps per-iteration simulation cost bounded.
var benchSim = core.NetSimParams{Warmup: 500, Measure: 1500, Drain: 15000}

// skipSlowBench gates the simulator-driven benchmarks behind -short so that
// `go test -short -bench=.` (the CI race job) only runs the cheap
// microbenchmarks and analytic-model benchmarks.
func skipSlowBench(b *testing.B) {
	b.Helper()
	if testing.Short() {
		b.Skip("simulator-driven benchmark is too slow for -short")
	}
}

// BenchmarkTable1Config regenerates Table 1 (system construction: activation
// order, floorplan, routing tables all derive from the configuration).
func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.New(core.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2RouterPower regenerates Figure 2 and reports the leakage
// share at each corner.
func BenchmarkFig2RouterPower(b *testing.B) {
	var rows []core.Fig2Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = core.Fig2RouterPower()
		if err != nil {
			b.Fatal(err)
		}
	}
	names := []string{"leak-share-1.0V", "leak-share-0.9V", "leak-share-0.75V"}
	for i, r := range rows {
		b.ReportMetric(r.Breakdown.TotalLeakage()/r.Breakdown.Total(), names[i])
	}
}

// BenchmarkFig3ChipBreakdown regenerates Figure 3 and reports the NoC share
// per chip size (paper: 0.18/0.26/0.35/0.42).
func BenchmarkFig3ChipBreakdown(b *testing.B) {
	var rows []core.Fig3Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = core.Fig3ChipBreakdown()
		if err != nil {
			b.Fatal(err)
		}
	}
	names := map[int]string{4: "noc-share-4c", 8: "noc-share-8c", 16: "noc-share-16c", 32: "noc-share-32c"}
	for _, r := range rows {
		b.ReportMetric(r.Breakdown.Share(power.CompNoC), names[r.Cores])
	}
}

// BenchmarkFig4Scaling regenerates Figure 4 (all scaling curves).
func BenchmarkFig4Scaling(b *testing.B) {
	s := newSprinter(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := core.Fig4Scaling(s)
		if len(rows) != 12 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkFig7ExecTime regenerates Figure 7 and reports the average
// speedups (paper: 3.6x NoC-sprinting, 1.9x full-sprinting).
func BenchmarkFig7ExecTime(b *testing.B) {
	s := newSprinter(b)
	var res core.Fig7Result
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = core.Fig7ExecTime(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.AvgSpeedupNoC, "speedup-NoC")
	b.ReportMetric(res.AvgSpeedupFull, "speedup-full")
}

// BenchmarkFig8CorePower regenerates Figure 8 and reports the savings
// (paper: 25.5% fine-grained, 69.1% NoC-sprinting).
func BenchmarkFig8CorePower(b *testing.B) {
	s := newSprinter(b)
	var res core.Fig8Result
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = core.Fig8CorePower(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.SavingFineGrained, "saving-fine")
	b.ReportMetric(res.SavingNoC, "saving-NoC")
}

// BenchmarkFig9NetLatency regenerates Figure 9 (and 10's) simulations and
// reports the average latency reduction (paper: 24.5%).
func BenchmarkFig9NetLatency(b *testing.B) {
	skipSlowBench(b)
	s := newSprinter(b)
	var res core.NetResult
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = core.Fig9Fig10Network(s, benchSim)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.LatencyReduction, "latency-cut")
}

// BenchmarkFig10NetPower reports Figure 10's network power saving (paper:
// 71.9%) from the same runs.
func BenchmarkFig10NetPower(b *testing.B) {
	skipSlowBench(b)
	s := newSprinter(b)
	var res core.NetResult
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = core.Fig9Fig10Network(s, benchSim)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.PowerSaving, "power-saving")
}

// BenchmarkFig11Sweep regenerates a reduced Figure 11 sweep and reports the
// pre-saturation cuts (paper: 45.1%/62.1% for 4-core, 16.1%/25.9% for
// 8-core).
func BenchmarkFig11Sweep(b *testing.B) {
	skipSlowBench(b)
	s := newSprinter(b)
	params := core.Fig11Params{
		Rates:   []float64{0.05, 0.15, 0.25},
		Samples: 3,
		Sim:     benchSim,
	}
	var series []core.Fig11Series
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series, err = core.Fig11Sweep(s, []int{4, 8}, params)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(series[0].PreSatLatencyCut, "lat-cut-4c")
	b.ReportMetric(series[0].PreSatPowerCut, "pow-cut-4c")
	b.ReportMetric(series[1].PreSatLatencyCut, "lat-cut-8c")
	b.ReportMetric(series[1].PreSatPowerCut, "pow-cut-8c")
}

// benchFig11Workers runs the reduced Figure 11 sweep at a fixed worker
// count; the Serial/Parallel pair below measures the speedup from fanning
// the sweep's (level, rate) points across cores. Results are identical at
// any worker count (each point carries its own seed), so the pair differs
// only in wall-clock time.
func benchFig11Workers(b *testing.B, workers int) {
	b.Helper()
	skipSlowBench(b)
	s := newSprinter(b)
	sim := benchSim
	sim.Workers = workers
	params := core.Fig11Params{
		Rates:   []float64{0.05, 0.15, 0.25},
		Samples: 3,
		Sim:     sim,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Fig11Sweep(s, []int{4, 8}, params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11SweepSerial pins the sweep to one worker, so points run
// one at a time.
func BenchmarkFig11SweepSerial(b *testing.B) { benchFig11Workers(b, 1) }

// BenchmarkFig11SweepParallel fans the sweep across all cores
// (Workers=0 resolves to GOMAXPROCS); compare ns/op against
// BenchmarkFig11SweepSerial for the parallel speedup on this machine.
func BenchmarkFig11SweepParallel(b *testing.B) { benchFig11Workers(b, 0) }

// BenchmarkFig12HeatMap regenerates Figure 12 and reports the three peak
// temperatures (paper: 358.3/347.79/343.81 K).
func BenchmarkFig12HeatMap(b *testing.B) {
	skipSlowBench(b)
	s := newSprinter(b)
	var cases []core.Fig12Case
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cases, err = core.Fig12HeatMaps(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	names := []string{"peakK-full", "peakK-clustered", "peakK-floorplan"}
	for i, c := range cases {
		b.ReportMetric(c.PeakK, names[i])
	}
}

// BenchmarkSprintDuration regenerates the Section 4.4 analysis and reports
// the average duration increase (paper: +55.4%).
func BenchmarkSprintDuration(b *testing.B) {
	skipSlowBench(b)
	s := newSprinter(b)
	var res core.DurationResult
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = core.SprintDurations(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.AvgIncrease, "duration-gain")
}

// ---------------------------------------------------------------------------
// Ablation benchmarks (design choices called out in DESIGN.md §4).

// BenchmarkAblationMetric compares Euclidean vs Hamming activation ordering
// by mean pairwise hops of the resulting regions (paper §3.2's argument).
func BenchmarkAblationMetric(b *testing.B) {
	m := mesh.New(4, 4)
	var eu, ha float64
	for i := 0; i < b.N; i++ {
		eu, ha = 0, 0
		for lvl := 2; lvl <= 16; lvl++ {
			eu += workload.AvgHops(m, 0, lvl, sprint.Euclidean)
			ha += workload.AvgHops(m, 0, lvl, sprint.Hamming)
		}
	}
	b.ReportMetric(eu/15, "hops-euclidean")
	b.ReportMetric(ha/15, "hops-hamming")
}

// BenchmarkAblationFloorplan compares peak temperature of a 4-core sprint
// with and without Algorithm 3.
func BenchmarkAblationFloorplan(b *testing.B) {
	s := newSprinter(b)
	var with, without float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hm1, err := s.HeatMap(4, core.NoCSprinting, false)
		if err != nil {
			b.Fatal(err)
		}
		hm2, err := s.HeatMap(4, core.NoCSprinting, true)
		if err != nil {
			b.Fatal(err)
		}
		without, _, _ = hm1.Peak()
		with, _, _ = hm2.Peak()
	}
	b.ReportMetric(without, "peakK-identity")
	b.ReportMetric(with, "peakK-planned")
}

// BenchmarkAblationPowerGating compares network power of a 4-core sprint
// with gating (NoC-sprinting) and without (fine-grained).
func BenchmarkAblationPowerGating(b *testing.B) {
	skipSlowBench(b)
	s := newSprinter(b)
	dedup, err := workload.ByName("dedup")
	if err != nil {
		b.Fatal(err)
	}
	var gated, ungated float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := s.EvaluateNetwork(dedup, core.NoCSprinting, benchSim)
		if err != nil {
			b.Fatal(err)
		}
		u, err := s.EvaluateNetwork(dedup, core.FineGrained, benchSim)
		if err != nil {
			b.Fatal(err)
		}
		gated, ungated = g.NetPower.Total(), u.NetPower.Total()
	}
	b.ReportMetric(gated*1e3, "mW-gated")
	b.ReportMetric(ungated*1e3, "mW-ungated")
}

// BenchmarkAblationCDORvsDetour quantifies the dark-router traversals CDOR
// avoids: hops of CDOR paths inside the region versus DOR paths that would
// cross dark nodes.
func BenchmarkAblationCDORvsDetour(b *testing.B) {
	m := mesh.New(4, 4)
	region := sprint.NewRegion(m, 0, 8, sprint.Euclidean)
	cdor := routing.NewCDOR(region)
	dor := routing.NewDOR(m)
	var dark int
	for i := 0; i < b.N; i++ {
		dark = 0
		for _, src := range region.ActiveNodes() {
			for _, dst := range region.ActiveNodes() {
				path, err := routing.Path(topo.FromMesh(m), dor, src, dst)
				if err != nil {
					b.Fatal(err)
				}
				for _, n := range path {
					if !region.Active(n) {
						dark++
					}
				}
				if _, err := routing.Path(topo.FromMesh(m), cdor, src, dst); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.ReportMetric(float64(dark), "dark-traversals-DOR")
	b.ReportMetric(0, "dark-traversals-CDOR")
}

// ---------------------------------------------------------------------------
// Microbenchmarks of the hot paths.

// BenchmarkNoCStep measures simulator cycle throughput on a loaded 4x4 mesh.
func BenchmarkNoCStep(b *testing.B) {
	cfg := noc.DefaultConfig()
	m := mesh.New(4, 4)
	net, err := noc.New(cfg, routing.NewDOR(m), nil)
	if err != nil {
		b.Fatal(err)
	}
	set := traffic.NewSet(nodes(16))
	pattern := traffic.NewUniform(16)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%5 == 0 {
			src := rng.Intn(16)
			net.Enqueue(src, set.PickNode(pattern, src, rng))
		}
		net.Step()
	}
}

// BenchmarkActivationOrder measures Algorithm 1 on an 8x8 mesh.
func BenchmarkActivationOrder(b *testing.B) {
	m := mesh.New(8, 8)
	for i := 0; i < b.N; i++ {
		if got := sprint.ActivationOrder(m, 0, sprint.Euclidean); len(got) != 64 {
			b.Fatal("bad order")
		}
	}
}

// BenchmarkThermalFloorplan measures Algorithms 3-4 on an 8x8 mesh.
func BenchmarkThermalFloorplan(b *testing.B) {
	m := mesh.New(8, 8)
	order := sprint.ActivationOrder(m, 0, sprint.Euclidean)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := floorplan.Thermal(m, order); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSteadyState measures the HotSpot-style solver at default
// resolution.
func BenchmarkSteadyState(b *testing.B) {
	cfg := thermal.DefaultGridConfig()
	tiles := make([]float64, 16)
	for i := range tiles {
		tiles[i] = 6.45
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := thermal.SteadyState(cfg, tiles); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCDORNextPort measures the routing decision itself.
func BenchmarkCDORNextPort(b *testing.B) {
	m := mesh.New(4, 4)
	region := sprint.NewRegion(m, 0, 8, sprint.Euclidean)
	alg := routing.NewCDOR(region)
	nodesIn := region.ActiveNodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := nodesIn[i%len(nodesIn)]
		dst := nodesIn[(i*7+3)%len(nodesIn)]
		if _, err := alg.NextPort(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

func nodes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// BenchmarkExtGatingComparison runs the extension study: conventional
// runtime power gating vs NoC-sprinting, reporting savings and the
// runtime-gating latency penalty.
func BenchmarkExtGatingComparison(b *testing.B) {
	skipSlowBench(b)
	s := newSprinter(b)
	var res core.GatingResult
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = core.GatingComparison(s, noc.DefaultGatingConfig(), benchSim)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.SavingRuntime, "saving-runtime")
	b.ReportMetric(res.SavingNoC, "saving-NoC")
	b.ReportMetric(res.PenaltyRuntime, "latency-penalty")
}

// BenchmarkExtLeakageFeedback runs the leakage-temperature feedback study
// and reports the sustainable-level budget with and without feedback.
func BenchmarkExtLeakageFeedback(b *testing.B) {
	s := newSprinter(b)
	var res core.FeedbackResult
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = core.LeakageFeedbackAnalysis(s, power.DefaultLeakageFeedback())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.MaxLevelNoFB), "max-level-no-fb")
	b.ReportMetric(float64(res.MaxLevelFB), "max-level-fb")
}

// BenchmarkExtController runs the online sprint controller over a bursty
// trace and reports the NoC-sprinting responsiveness advantage over
// full-sprinting.
func BenchmarkExtController(b *testing.B) {
	skipSlowBench(b)
	s := newSprinter(b)
	dedup, err := workload.ByName("dedup")
	if err != nil {
		b.Fatal(err)
	}
	bursts := []core.Burst{
		{Profile: dedup, WorkSeconds: 1.2, ArrivalS: 0},
		{Profile: dedup, WorkSeconds: 1.2, ArrivalS: 4},
		{Profile: dedup, WorkSeconds: 1.2, ArrivalS: 8},
	}
	var respNoC, respFull float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, scheme := range []core.Scheme{core.NoCSprinting, core.FullSprinting} {
			cfg := core.DefaultControllerConfig()
			cfg.Scheme = scheme
			ctl, err := core.NewController(s, cfg)
			if err != nil {
				b.Fatal(err)
			}
			res, err := ctl.RunTrace(bursts, 30)
			if err != nil {
				b.Fatal(err)
			}
			var avg float64
			for j, c := range res.Completions {
				avg += c - bursts[j].ArrivalS
			}
			avg /= float64(len(bursts))
			if scheme == core.NoCSprinting {
				respNoC = avg
			} else {
				respFull = avg
			}
		}
	}
	b.ReportMetric(respNoC, "resp-NoC-s")
	b.ReportMetric(respFull, "resp-full-s")
}

// BenchmarkExtWireStudy runs the Section 3.3 wire study and reports the
// latency of each wiring option.
func BenchmarkExtWireStudy(b *testing.B) {
	skipSlowBench(b)
	s := newSprinter(b)
	var cases []core.WireCase
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cases, err = core.FloorplanWireStudy(s, benchSim)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cases[0].AvgLatency, "lat-identity")
	b.ReportMetric(cases[1].AvgLatency, "lat-plain-wires")
	b.ReportMetric(cases[2].AvgLatency, "lat-smart-wires")
}

// BenchmarkExtScaling runs the mesh scaling study (4x4 and 6x6 to bound
// benchmark time) and reports the NoC-share trend.
func BenchmarkExtScaling(b *testing.B) {
	skipSlowBench(b)
	var rows []core.ScaleRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = core.ScalingStudy([]int{4, 6}, benchSim)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].NoCShareNominal, "noc-share-4x4")
	b.ReportMetric(rows[1].NoCShareNominal, "noc-share-6x6")
	b.ReportMetric(rows[1].PowerSaving, "pow-saving-6x6")
}

// BenchmarkExtSensitivity sweeps the Table 1 buffering knobs and reports
// the saturation-throughput spread.
func BenchmarkExtSensitivity(b *testing.B) {
	skipSlowBench(b)
	var rows []core.SensitivityRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = core.SensitivitySweep(benchSim)
		if err != nil {
			b.Fatal(err)
		}
	}
	min, max := 10.0, 0.0
	for _, r := range rows {
		if r.SaturationRate < min {
			min = r.SaturationRate
		}
		if r.SaturationRate > max {
			max = r.SaturationRate
		}
	}
	b.ReportMetric(min, "saturation-min")
	b.ReportMetric(max, "saturation-max")
}

// BenchmarkExtLLCStudy runs the Section 3.4 LLC policy study and reports
// the AMAT of each option.
func BenchmarkExtLLCStudy(b *testing.B) {
	skipSlowBench(b)
	s := newSprinter(b)
	params := core.LLCParams{AccessesPerCore: 600}
	var rows []core.LLCRow
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err = core.LLCStudy(s, params)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].AMAT, "amat-full")
	b.ReportMetric(rows[1].AMAT, "amat-remap")
	b.ReportMetric(rows[2].AMAT, "amat-bypass")
}

// BenchmarkCacheArray measures the tag-array hot path.
func BenchmarkCacheArray(b *testing.B) {
	a := cache.NewArray(256, 4)
	for i := uint64(0); i < 1024; i++ {
		a.Install(i, i%3 == 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(i*2654435761) % 2048
		if !a.Access(addr, false) {
			a.Install(addr, false)
		}
	}
}
