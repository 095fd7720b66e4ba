package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"nocsprint/internal/cache"
	"nocsprint/internal/ckpt"
	"nocsprint/internal/mesh"
	"nocsprint/internal/noc"
	"nocsprint/internal/power"
	"nocsprint/internal/routing"
	"nocsprint/internal/sprint"
	"nocsprint/internal/stats"
	"nocsprint/internal/thermal"
	"nocsprint/internal/topo"
	"nocsprint/internal/traffic"
	"nocsprint/internal/workload"
)

// This file contains one driver per table/figure of the paper's evaluation.
// Each returns a typed result; the experiment registry (registry.go) runs
// them for every front end and renders them as text, and bench_test.go
// regenerates them under `go test -bench`.

// Fig2Row is one (voltage, frequency) corner of Figure 2.
type Fig2Row struct {
	Corner    power.Corner
	Breakdown power.Breakdown
}

// Fig2RouterPower reproduces Figure 2: router power breakdown (dynamic vs
// leakage) for a 128-bit, 2-VC, 4-flit-buffer wormhole router at 0.4
// flits/cycle across the three corners.
func Fig2RouterPower() ([]Fig2Row, error) {
	cfg := noc.DefaultConfig()
	cfg.VCs = 2 // the paper's Figure 2 router has two VCs per port
	params := power.DefaultRouterParams45nm(cfg)
	const cycles = 1_000_000
	events := power.SyntheticRouterEvents(0.4, cycles, cfg.PacketLength)
	var rows []Fig2Row
	for _, corner := range []power.Corner{power.Nominal, power.Mid, power.Low} {
		b, err := params.RouterPower(events, cycles, corner)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig2Row{Corner: corner, Breakdown: b})
	}
	return rows, nil
}

// Fig3Row is one chip size of Figure 3.
type Fig3Row struct {
	Cores     int
	Breakdown power.ChipBreakdown
}

// Fig3ChipBreakdown reproduces Figure 3: chip power breakdown during
// nominal operation (single active core, dark rest, NoC un-gated) for
// 4/8/16/32-core chips.
func Fig3ChipBreakdown() ([]Fig3Row, error) {
	params := power.DefaultChipParams()
	var rows []Fig3Row
	for _, n := range []int{4, 8, 16, 32} {
		b, err := params.ChipPower(power.NominalStates(n), n)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig3Row{Cores: n, Breakdown: b})
	}
	return rows, nil
}

// Fig4Row is one benchmark's scaling curve of Figure 4.
type Fig4Row struct {
	Benchmark string
	Cores     []int
	// NormTime is T(n)/T(1) per entry of Cores.
	NormTime []float64
}

// Fig4Scaling reproduces Figure 4: PARSEC execution time versus available
// core count.
func Fig4Scaling(s *Sprinter) []Fig4Row {
	cores := []int{1, 2, 4, 8, 12, 16}
	var rows []Fig4Row
	for _, p := range workload.Profiles() {
		row := Fig4Row{Benchmark: p.Name, Cores: cores}
		for _, n := range cores {
			hops := workload.AvgHops(s.mesh, s.cfg.Master, n, s.cfg.Metric)
			row.NormTime = append(row.NormTime, p.NormTime(n, hops))
		}
		rows = append(rows, row)
	}
	return rows
}

// Fig7Row compares execution time across schemes for one benchmark.
type Fig7Row struct {
	Benchmark string
	Level     int // NoC-sprinting's chosen level
	// Seconds per scheme: non-sprinting, full-sprinting, NoC-sprinting.
	NonSprint, FullSprint, NoCSprint float64
}

// Fig7Result aggregates Figure 7.
type Fig7Result struct {
	Rows []Fig7Row
	// AvgSpeedupNoC and AvgSpeedupFull are mean speedups over
	// non-sprinting (paper: 3.6x and 1.9x).
	AvgSpeedupNoC, AvgSpeedupFull float64
}

// Fig7ExecTime reproduces Figure 7: execution time with different sprinting
// mechanisms.
func Fig7ExecTime(s *Sprinter) (Fig7Result, error) {
	var out Fig7Result
	var spN, spF []float64
	for _, p := range workload.Profiles() {
		non, err := s.Decide(p, NonSprinting)
		if err != nil {
			return Fig7Result{}, err
		}
		full, err := s.Decide(p, FullSprinting)
		if err != nil {
			return Fig7Result{}, err
		}
		nocs, err := s.Decide(p, NoCSprinting)
		if err != nil {
			return Fig7Result{}, err
		}
		out.Rows = append(out.Rows, Fig7Row{
			Benchmark:  p.Name,
			Level:      nocs.Level,
			NonSprint:  non.ExecSeconds,
			FullSprint: full.ExecSeconds,
			NoCSprint:  nocs.ExecSeconds,
		})
		spN = append(spN, non.ExecSeconds/nocs.ExecSeconds)
		spF = append(spF, non.ExecSeconds/full.ExecSeconds)
	}
	out.AvgSpeedupNoC = stats.Mean(spN)
	out.AvgSpeedupFull = stats.Mean(spF)
	return out, nil
}

// Fig8Row compares core power across schemes for one benchmark.
type Fig8Row struct {
	Benchmark string
	Level     int
	// Watts of core power per scheme.
	FullSprint, FineGrained, NoCSprint float64
}

// Fig8Result aggregates Figure 8.
type Fig8Result struct {
	Rows []Fig8Row
	// SavingFineGrained and SavingNoC are average core-power savings vs
	// full-sprinting (paper: 25.5% and 69.1%).
	SavingFineGrained, SavingNoC float64
}

// Fig8CorePower reproduces Figure 8: core power dissipation with different
// sprinting schemes.
func Fig8CorePower(s *Sprinter) (Fig8Result, error) {
	var out Fig8Result
	var fullSum, fineSum, nocSum float64
	for _, p := range workload.Profiles() {
		full, err := s.Decide(p, FullSprinting)
		if err != nil {
			return Fig8Result{}, err
		}
		fine, err := s.Decide(p, FineGrained)
		if err != nil {
			return Fig8Result{}, err
		}
		nocs, err := s.Decide(p, NoCSprinting)
		if err != nil {
			return Fig8Result{}, err
		}
		out.Rows = append(out.Rows, Fig8Row{
			Benchmark:   p.Name,
			Level:       nocs.Level,
			FullSprint:  full.CorePowerW,
			FineGrained: fine.CorePowerW,
			NoCSprint:   nocs.CorePowerW,
		})
		fullSum += full.CorePowerW
		fineSum += fine.CorePowerW
		nocSum += nocs.CorePowerW
	}
	out.SavingFineGrained = 1 - fineSum/fullSum
	out.SavingNoC = 1 - nocSum/fullSum
	return out, nil
}

// NetRow compares the network between full- and NoC-sprinting for one
// benchmark (Figures 9 and 10 share the same runs).
type NetRow struct {
	Benchmark string
	Level     int
	// LatencyFull/LatencyNoC are average packet latencies in cycles.
	LatencyFull, LatencyNoC float64
	// PowerFull/PowerNoC are network power in watts.
	PowerFull, PowerNoC float64
}

// NetResult aggregates Figures 9 and 10.
type NetResult struct {
	Rows []NetRow
	// LatencyReduction is the average latency cut (paper: 24.5%).
	LatencyReduction float64
	// PowerSaving is the average network power saving (paper: 71.9%).
	PowerSaving float64
}

// Fig9Fig10Network reproduces Figures 9 and 10: average network latency and
// total network power for PARSEC under full- versus NoC-sprinting, using
// the cycle-accurate simulator and the DSENT-like power model. Benchmarks
// run in parallel per sp.Workers; each carries a fixed per-benchmark seed,
// so results are identical at any worker count. sp.Ctx cancels the sweep
// and sp.Journal checkpoints it, per NetSimParams.
func Fig9Fig10Network(s *Sprinter, sp NetSimParams) (NetResult, error) {
	sp = sp.withDefaults() // canonicalise before key derivation
	type task struct {
		idx     int
		profile workload.Profile
	}
	var tasks []task
	for i, p := range workload.Profiles() {
		tasks = append(tasks, task{idx: i, profile: p})
	}
	keys := make([]string, len(tasks))
	for i, tk := range tasks {
		var err error
		keys[i], err = pointKey("fig9fig10", s.cfg, struct {
			Benchmark string
			Index     int
		}{tk.profile.Name, tk.idx}, sp)
		if err != nil {
			return NetResult{}, err
		}
	}
	rows, err := runPoints(sp, keys, func(_ context.Context, i int) (NetRow, error) {
		tk := tasks[i]
		sim := sp
		sim.Seed = int64(1000 + tk.idx)
		full, err := s.EvaluateNetwork(tk.profile, FullSprinting, sim)
		if err != nil {
			return NetRow{}, err
		}
		nocs, err := s.EvaluateNetwork(tk.profile, NoCSprinting, sim)
		if err != nil {
			return NetRow{}, err
		}
		return NetRow{
			Benchmark:   tk.profile.Name,
			Level:       nocs.Level,
			LatencyFull: full.AvgLatency,
			LatencyNoC:  nocs.AvgLatency,
			PowerFull:   full.NetPower.Total(),
			PowerNoC:    nocs.NetPower.Total(),
		}, nil
	})
	if err != nil {
		return NetResult{}, err
	}
	out := NetResult{Rows: rows}
	var latRed, powSav []float64
	for _, row := range rows {
		if row.LatencyFull > 0 && row.LatencyNoC > 0 {
			latRed = append(latRed, 1-row.LatencyNoC/row.LatencyFull)
		}
		powSav = append(powSav, 1-row.PowerNoC/row.PowerFull)
	}
	out.LatencyReduction = stats.Mean(latRed)
	out.PowerSaving = stats.Mean(powSav)
	return out, nil
}

// Fig11Point is one offered-load point of Figure 11.
type Fig11Point struct {
	// Offered load in flits/cycle/node.
	Rate float64
	// Latency in cycles and network power in watts for NoC-sprinting.
	LatencyNoC, PowerNoC float64
	SaturatedNoC         bool
	// Same for the randomly-mapped full-sprinting baseline (averaged over
	// samples).
	LatencyFull, PowerFull float64
	SaturatedFull          bool
}

// Fig11Series is the sweep for one sprint level.
type Fig11Series struct {
	Level  int
	Points []Fig11Point
	// PreSatLatencyCut and PreSatPowerCut average the NoC-sprinting
	// improvement over points where neither configuration saturated
	// (paper: 45.1%/16.1% latency, 62.1%/25.9% power for levels 4/8).
	PreSatLatencyCut, PreSatPowerCut float64
}

// Fig11Params tunes the sweep cost; zero values select defaults.
type Fig11Params struct {
	Rates   []float64
	Samples int // random mappings for full-sprinting (paper: 10)
	Sim     NetSimParams
}

func (p Fig11Params) withDefaults() Fig11Params {
	if len(p.Rates) == 0 {
		// Sweep past the sprint region's saturation point so the paper's
		// "NoC-sprinting saturates earlier" observation is visible.
		p.Rates = []float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.70}
	}
	if p.Samples == 0 {
		p.Samples = 10
	}
	p.Sim = p.Sim.withDefaults()
	return p
}

// Fig11Sweep reproduces Figure 11: uniform-random synthetic traffic sweeps
// for 4-core and 8-core sprinting versus randomly-mapped full-sprinting.
// Every (level, rate) point is an independent simulation with its own seed;
// points run in parallel per params.Sim.Workers and the output is identical
// to a serial run at any worker count. The sweep honours params.Sim.Ctx for
// cancellation and params.Sim.Journal for crash-safe resume.
func Fig11Sweep(s *Sprinter, levels []int, params Fig11Params) ([]Fig11Series, error) {
	params = params.withDefaults()
	if len(levels) == 0 {
		levels = []int{4, 8}
	}
	type task struct {
		level, ri int
		rate      float64
	}
	var tasks []task
	for _, level := range levels {
		for ri, rate := range params.Rates {
			tasks = append(tasks, task{level: level, ri: ri, rate: rate})
		}
	}
	keys := make([]string, len(tasks))
	for i, tk := range tasks {
		var err error
		keys[i], err = pointKey("fig11", s.cfg, struct {
			Level   int
			RateIdx int
			Rate    float64
			Samples int
		}{tk.level, tk.ri, tk.rate, params.Samples}, params.Sim)
		if err != nil {
			return nil, err
		}
	}
	points, err := runPoints(params.Sim, keys,
		func(_ context.Context, i int) (Fig11Point, error) {
			tk := tasks[i]
			return fig11Point(s, tk.level, tk.ri, tk.rate, params)
		})
	if err != nil {
		return nil, err
	}

	// Reassemble level-major (tasks were built level-major) and derive the
	// pre-saturation aggregates, which need each level's lowest-load point.
	var series []Fig11Series
	for li, level := range levels {
		ser := Fig11Series{Level: level, Points: points[li*len(params.Rates) : (li+1)*len(params.Rates)]}
		var latCuts, powCuts []float64
		first := ser.Points[0]
		for _, pt := range ser.Points {
			// "Pre-saturation" points: neither side flagged saturated and
			// neither latency has left the flat region of its curve (within
			// 1.5x of the lowest-load point), so one degenerate random
			// mapping near the knee cannot skew the average.
			flat := pt.LatencyNoC < 1.5*first.LatencyNoC && pt.LatencyFull < 1.5*first.LatencyFull
			if !pt.SaturatedNoC && !pt.SaturatedFull && pt.LatencyFull > 0 && flat {
				latCuts = append(latCuts, 1-pt.LatencyNoC/pt.LatencyFull)
				powCuts = append(powCuts, 1-pt.PowerNoC/pt.PowerFull)
			}
		}
		ser.PreSatLatencyCut = stats.Mean(latCuts)
		ser.PreSatPowerCut = stats.Mean(powCuts)
		series = append(series, ser)
	}
	return series, nil
}

// fig11Point evaluates one (level, rate) cell of Figure 11: a NoC-sprinting
// run plus params.Samples randomly-mapped full-sprinting runs. All state —
// region, network, traffic set, RNG — is constructed locally, so the
// function is safe to run concurrently for different points; the seeds
// depend only on (ri, sample), matching the original serial sweep.
func fig11Point(s *Sprinter, level, ri int, rate float64, params Fig11Params) (Fig11Point, error) {
	pt := Fig11Point{Rate: rate}

	// NoC-sprinting: convex region, CDOR, gated dark routers.
	region := s.Region(level)
	net, err := noc.New(s.cfg.NoC, routing.NewCDOR(region), region.ActiveNodes())
	if err != nil {
		return Fig11Point{}, err
	}
	params.Sim.instrument(net, region, fmt.Sprintf("fig11/l%d/r%02d/noc", level, ri))
	set := traffic.NewSet(region.ActiveNodes())
	res, err := noc.RunSynthetic(net, set, traffic.NewUniform(level), noc.SimParams{
		InjectionRate: rate,
		WarmupCycles:  params.Sim.Warmup,
		MeasureCycles: params.Sim.Measure,
		DrainCycles:   params.Sim.Drain,
		Seed:          params.Sim.Seed + int64(ri),
		Ctx:           params.Sim.Abort,
	})
	if err != nil {
		return Fig11Point{}, err
	}
	bd, err := s.cfg.Router.NetworkPower(res.Events, res.MeasureWindow, level, s.cfg.Corner)
	if err != nil {
		return Fig11Point{}, err
	}
	pt.LatencyNoC, pt.PowerNoC, pt.SaturatedNoC = res.AvgLatency, bd.Total(), res.Saturated

	// Full-sprinting: same traffic randomly mapped onto the fully-powered
	// mesh, averaged over samples. A point counts as saturated when a
	// majority of mappings saturate.
	var latSum, powSum float64
	satCount := 0
	valid := 0
	for sample := 0; sample < params.Samples; sample++ {
		seed := params.Sim.Seed + int64(1e6) + int64(sample)*997 + int64(ri)
		rng := rand.New(rand.NewSource(seed))
		fset := traffic.RandomSet(s.mesh.Nodes(), level, rng)
		fnet, err := noc.New(s.cfg.NoC, routing.NewDOR(s.mesh), nil)
		if err != nil {
			return Fig11Point{}, err
		}
		params.Sim.instrument(fnet, nil, fmt.Sprintf("fig11/l%d/r%02d/full%d", level, ri, sample))
		fres, err := noc.RunSynthetic(fnet, fset, traffic.NewUniform(level), noc.SimParams{
			InjectionRate: rate,
			WarmupCycles:  params.Sim.Warmup,
			MeasureCycles: params.Sim.Measure,
			DrainCycles:   params.Sim.Drain,
			Seed:          seed,
			Ctx:           params.Sim.Abort,
		})
		if err != nil {
			return Fig11Point{}, err
		}
		fbd, err := s.cfg.Router.NetworkPower(fres.Events, fres.MeasureWindow, s.mesh.Nodes(), s.cfg.Corner)
		if err != nil {
			return Fig11Point{}, err
		}
		latSum += fres.AvgLatency
		powSum += fbd.Total()
		if fres.Saturated {
			satCount++
		}
		valid++
	}
	pt.LatencyFull = latSum / float64(valid)
	pt.PowerFull = powSum / float64(valid)
	pt.SaturatedFull = satCount*2 > valid
	return pt, nil
}

// Fig12Case is one heat map of Figure 12.
type Fig12Case struct {
	Name string
	Map  *thermal.HeatMap
	// PeakK is the hottest cell temperature (paper: 358.3, 347.79,
	// 343.81 K).
	PeakK float64
}

// Fig12HeatMaps reproduces Figure 12 for the dedup case study (optimal
// sprint level 4): full-sprinting, fine-grained without floorplanning, and
// fine-grained with the thermal-aware floorplan.
func Fig12HeatMaps(s *Sprinter) ([]Fig12Case, error) {
	dedup, err := workload.ByName("dedup")
	if err != nil {
		return nil, err
	}
	level := s.Level(dedup, NoCSprinting)
	cases := []struct {
		name   string
		level  int
		scheme Scheme
		plan   bool
	}{
		{"full-sprinting", s.mesh.Nodes(), FullSprinting, false},
		{"NoC-sprinting (identity floorplan)", level, NoCSprinting, false},
		{"NoC-sprinting (thermal-aware floorplan)", level, NoCSprinting, true},
	}
	var out []Fig12Case
	for _, c := range cases {
		hm, err := s.HeatMap(c.level, c.scheme, c.plan)
		if err != nil {
			return nil, fmt.Errorf("core: %s heat map: %w", c.name, err)
		}
		peak, _, _ := hm.Peak()
		out = append(out, Fig12Case{Name: c.name, Map: hm, PeakK: peak})
	}
	return out, nil
}

// DurationRow compares sprint duration between full- and NoC-sprinting for
// one benchmark.
type DurationRow struct {
	Benchmark string
	Level     int
	// Seconds of sprint duration (possibly +Inf when sustainable).
	FullSprint, NoCSprint float64
	// Phases of the NoC-sprinting run.
	Phases thermal.Phases
}

// DurationResult aggregates the §4.4 sprint-duration analysis.
type DurationResult struct {
	Rows []DurationRow
	// AvgIncrease is the mean duration gain of NoC-sprinting over
	// full-sprinting across benchmarks with finite durations (paper:
	// +55.4%).
	AvgIncrease float64
}

// SprintDurations reproduces §4.4: how NoC-sprinting extends the sprint.
func SprintDurations(s *Sprinter) (DurationResult, error) {
	var out DurationResult
	var gains []float64
	for _, p := range workload.Profiles() {
		phFull, _, err := s.SprintThermal(p, FullSprinting)
		if err != nil {
			return DurationResult{}, err
		}
		phNoC, d, err := s.SprintThermal(p, NoCSprinting)
		if err != nil {
			return DurationResult{}, err
		}
		row := DurationRow{
			Benchmark:  p.Name,
			Level:      d.Level,
			FullSprint: phFull.Total(),
			NoCSprint:  phNoC.Total(),
			Phases:     phNoC,
		}
		out.Rows = append(out.Rows, row)
		if !math.IsInf(row.FullSprint, 1) && !math.IsInf(row.NoCSprint, 1) {
			gains = append(gains, row.NoCSprint/row.FullSprint-1)
		}
	}
	out.AvgIncrease = stats.Mean(gains)
	return out, nil
}

// GatingRow compares the three network power-management schemes for one
// benchmark: no gating (full-sprinting), conventional traffic-driven
// runtime gating (the §2 baseline: NoRD/Catnap/router-parking class), and
// NoC-sprinting's static region gating.
type GatingRow struct {
	Benchmark string
	Level     int
	// Latency in cycles per scheme.
	LatNone, LatRuntime, LatNoC float64
	// Network power in watts per scheme.
	PowNone, PowRuntime, PowNoC float64
	// Wakeups counts runtime-gating power-on events; ShortOffs those below
	// break-even (energy-negative gating decisions).
	Wakeups, ShortOffs int64
}

// GatingResult aggregates the power-management comparison.
type GatingResult struct {
	Rows []GatingRow
	// SavingRuntime and SavingNoC are average network power savings versus
	// no gating; PenaltyRuntime is the average latency increase of runtime
	// gating versus no gating.
	SavingRuntime, SavingNoC, PenaltyRuntime float64
}

// GatingComparison runs the §2 power-gating study: conventional runtime
// gating saves some leakage but pays wake-up latency and makes uneconomic
// decisions at PARSEC loads, while NoC-sprinting gates statically, saves
// more, and adds no latency.
func GatingComparison(s *Sprinter, gcfg noc.GatingConfig, sp NetSimParams) (GatingResult, error) {
	if err := gcfg.Validate(); err != nil {
		return GatingResult{}, err
	}
	sp = sp.withDefaults()
	var out GatingResult
	var savR, savN, pen []float64
	for i, p := range workload.Profiles() {
		// The comparison runs serially; honour sweep-level cancellation
		// between benchmarks so an interrupted run returns promptly.
		if err := sp.sweepCtx().Err(); err != nil {
			return GatingResult{}, fmt.Errorf("core: gating comparison cancelled before %s: %w", p.Name, err)
		}
		level := s.Level(p, NoCSprinting)
		if level < 2 {
			continue // no traffic to route
		}
		seed := int64(7000 + i)
		evalSP := sp
		evalSP.Seed = seed

		// Scheme 1: full-sprinting, no network power management.
		none, err := s.EvaluateNetwork(p, FullSprinting, evalSP)
		if err != nil {
			return GatingResult{}, err
		}

		// Scheme 2: full mesh with conventional runtime gating.
		net, err := noc.New(s.cfg.NoC, routing.NewDOR(s.mesh), nil)
		if err != nil {
			return GatingResult{}, err
		}
		if err := net.EnableRuntimeGating(gcfg); err != nil {
			return GatingResult{}, err
		}
		sp.instrument(net, nil, fmt.Sprintf("gating/%s/runtime", p.Name))
		set := traffic.NewSet(topo.AllNodes(s.mesh.Nodes()))
		res, err := noc.RunSynthetic(net, set, traffic.NewUniform(set.Size()), noc.SimParams{
			InjectionRate: p.InjRate,
			WarmupCycles:  sp.Warmup,
			MeasureCycles: sp.Measure,
			DrainCycles:   sp.Drain,
			Seed:          seed,
			Ctx:           sp.Abort,
		})
		if err != nil {
			return GatingResult{}, err
		}
		gs := net.GatingStats()
		// Use run-lifetime on-fraction as the window estimate: the warmup
		// reaches steady gating behaviour before measurement.
		onCycles := int64(float64(res.MeasureWindow) * float64(s.mesh.Nodes()) * gs.OnFraction())
		rbd, err := s.cfg.Router.NetworkPowerRuntimeGated(res.Events, res.MeasureWindow,
			s.mesh.Nodes(), onCycles, gs.Wakeups, s.cfg.Corner)
		if err != nil {
			return GatingResult{}, err
		}

		// Scheme 3: NoC-sprinting.
		nocs, err := s.EvaluateNetwork(p, NoCSprinting, evalSP)
		if err != nil {
			return GatingResult{}, err
		}

		row := GatingRow{
			Benchmark:  p.Name,
			Level:      level,
			LatNone:    none.AvgLatency,
			LatRuntime: res.AvgLatency,
			LatNoC:     nocs.AvgLatency,
			PowNone:    none.NetPower.Total(),
			PowRuntime: rbd.Total(),
			PowNoC:     nocs.NetPower.Total(),
			Wakeups:    gs.Wakeups,
			ShortOffs:  gs.ShortOffs,
		}
		out.Rows = append(out.Rows, row)
		savR = append(savR, 1-row.PowRuntime/row.PowNone)
		savN = append(savN, 1-row.PowNoC/row.PowNone)
		if row.LatNone > 0 {
			pen = append(pen, row.LatRuntime/row.LatNone-1)
		}
	}
	out.SavingRuntime = stats.Mean(savR)
	out.SavingNoC = stats.Mean(savN)
	out.PenaltyRuntime = stats.Mean(pen)
	return out, nil
}

// FeedbackRow is one sprint level of the leakage-feedback analysis.
type FeedbackRow struct {
	Level int
	// BasePowerW is the chip power at the reference temperature.
	BasePowerW float64
	// NoFeedback is the steady temperature ignoring leakage-temperature
	// coupling (+Inf-like cap if above the junction limit).
	NoFeedbackK float64
	// WithFeedback is the coupled fixed point.
	WithFeedback power.SteadyResult
	// SustainableNoFB / SustainableFB report whether the level can run
	// indefinitely below the junction limit.
	SustainableNoFB, SustainableFB bool
}

// FeedbackResult aggregates the analysis.
type FeedbackResult struct {
	Rows []FeedbackRow
	// MaxLevelNoFB and MaxLevelFB are the highest indefinitely-sustainable
	// sprint levels without and with leakage feedback.
	MaxLevelNoFB, MaxLevelFB int
}

// LeakageFeedbackAnalysis is an extension study: for every sprint level it
// solves the coupled power-thermal steady state under temperature-dependent
// leakage and reports the highest level the chip could sustain forever —
// the "dim silicon" budget. Leakage feedback shaves levels off the
// no-feedback answer, reinforcing the paper's premise that leakage depletes
// the power budget.
func LeakageFeedbackAnalysis(s *Sprinter, fb power.LeakageFeedback) (FeedbackResult, error) {
	if err := fb.Validate(); err != nil {
		return FeedbackResult{}, err
	}
	lump := s.cfg.Lumped
	var out FeedbackResult
	n := s.mesh.Nodes()
	for level := 1; level <= n; level++ {
		chip, err := s.cfg.Chip.ChipPower(power.SprintStates(n, level, true), level)
		if err != nil {
			return FeedbackResult{}, err
		}
		base := chip.Total()
		noFB := lump.AmbientK + base*lump.RthKperW
		res, err := fb.SolveSteady(base, lump.AmbientK, lump.RthKperW, lump.MaxK)
		if err != nil {
			return FeedbackResult{}, err
		}
		row := FeedbackRow{
			Level:           level,
			BasePowerW:      base,
			NoFeedbackK:     noFB,
			WithFeedback:    res,
			SustainableNoFB: noFB < lump.MaxK,
			SustainableFB:   !res.Runaway,
		}
		out.Rows = append(out.Rows, row)
		if row.SustainableNoFB {
			out.MaxLevelNoFB = level
		}
		if row.SustainableFB {
			out.MaxLevelFB = level
		}
	}
	return out, nil
}

// WireCase is one configuration of the floorplan wire study.
type WireCase struct {
	Name string
	// AvgLatency is mean packet latency of a level-4 sprint's traffic.
	AvgLatency float64
	// PeakK is the corresponding steady-state peak temperature.
	PeakK float64
	// MaxLinkCycles is the slowest link's latency in cycles.
	MaxLinkCycles int
}

// FloorplanWireStudy quantifies the §3.3 trade-off: the thermal-aware
// floorplan stretches physical wires, which costs network latency unless
// SMART-style clockless repeated wires (Krishna et al., cited by the paper)
// cross them in a single cycle. Three cases at the dedup level-4 sprint:
// identity placement, floorplanned with plain (per-millimetre) wires, and
// floorplanned with SMART wires.
func FloorplanWireStudy(s *Sprinter, sp NetSimParams) ([]WireCase, error) {
	sp = sp.withDefaults()
	dedup, err := workload.ByName("dedup")
	if err != nil {
		return nil, err
	}
	level := s.Level(dedup, NoCSprinting)
	region := s.Region(level)
	plan := s.plan

	run := func(planned, smart bool) (float64, int, error) {
		net, err := noc.New(s.cfg.NoC, routing.NewCDOR(region), region.ActiveNodes())
		if err != nil {
			return 0, 0, err
		}
		sp.instrument(net, region, fmt.Sprintf("wires/planned=%t/smart=%t", planned, smart))
		maxLink := s.cfg.NoC.LinkLatency
		if planned && !smart {
			// Plain wires: latency grows with the physical Euclidean
			// distance between the mapped tiles (one cycle per tile pitch).
			for _, a := range region.ActiveNodes() {
				for _, b := range s.mesh.Neighbors(a) {
					if !region.Active(b) {
						continue
					}
					d := s.mesh.Coord(plan.Pos(a)).Euclidean(s.mesh.Coord(plan.Pos(b)))
					cycles := int(math.Ceil(d))
					if cycles < 1 {
						cycles = 1
					}
					if err := net.SetLinkLatency(a, b, cycles); err != nil {
						return 0, 0, err
					}
					if cycles > maxLink {
						maxLink = cycles
					}
				}
			}
		}
		set := traffic.NewSet(region.ActiveNodes())
		res, err := noc.RunSynthetic(net, set, traffic.NewUniform(level), noc.SimParams{
			InjectionRate: dedup.InjRate,
			WarmupCycles:  sp.Warmup,
			MeasureCycles: sp.Measure,
			DrainCycles:   sp.Drain,
			Seed:          sp.Seed + 31,
			Ctx:           sp.Abort,
		})
		if err != nil {
			return 0, 0, err
		}
		return res.AvgLatency, maxLink, nil
	}

	idLat, idMax, err := run(false, false)
	if err != nil {
		return nil, err
	}
	plainLat, plainMax, err := run(true, false)
	if err != nil {
		return nil, err
	}
	smartLat, smartMax, err := run(true, true)
	if err != nil {
		return nil, err
	}
	hmID, err := s.HeatMap(level, NoCSprinting, false)
	if err != nil {
		return nil, err
	}
	hmPlan, err := s.HeatMap(level, NoCSprinting, true)
	if err != nil {
		return nil, err
	}
	peakID, _, _ := hmID.Peak()
	peakPlan, _, _ := hmPlan.Peak()
	return []WireCase{
		{Name: "identity placement", AvgLatency: idLat, PeakK: peakID, MaxLinkCycles: idMax},
		{Name: "floorplanned, plain wires", AvgLatency: plainLat, PeakK: peakPlan, MaxLinkCycles: plainMax},
		{Name: "floorplanned, SMART wires", AvgLatency: smartLat, PeakK: peakPlan, MaxLinkCycles: smartMax},
	}, nil
}

// ScaleRow is one mesh size of the scaling study.
type ScaleRow struct {
	Width, Nodes int
	// NoCShareNominal is the network's share of chip power at nominal
	// operation (Figure 3's trend, continued).
	NoCShareNominal float64
	// Level is the sprint level evaluated (a quarter of the chip).
	Level int
	// LatencyCut and PowerSaving compare NoC-sprinting against
	// full-sprinting for uniform traffic at that level.
	LatencyCut, PowerSaving float64
}

// ScalingStudy extends the evaluation to larger meshes (the dark-silicon
// trend the paper motivates with Figure 3): as the chip grows, the
// un-gateable network's share grows, and so does NoC-sprinting's saving for
// a fixed utilisation fraction (one quarter of the cores active).
// Mesh sizes run in parallel per sp.Workers with per-size seeds; sp.Ctx
// cancels the sweep and sp.Journal checkpoints it.
func ScalingStudy(widths []int, sp NetSimParams) ([]ScaleRow, error) {
	if len(widths) == 0 {
		widths = []int{4, 6, 8}
	}
	sp = sp.withDefaults()
	chip := power.DefaultChipParams()
	type task struct{ wi, w int }
	var tasks []task
	for wi, w := range widths {
		tasks = append(tasks, task{wi: wi, w: w})
	}
	keys := make([]string, len(tasks))
	for i, tk := range tasks {
		var err error
		keys[i], err = pointKey("scaling", nil, struct {
			Width    int
			WidthIdx int
		}{tk.w, tk.wi}, sp)
		if err != nil {
			return nil, err
		}
	}
	return runPoints(sp, keys, func(_ context.Context, i int) (ScaleRow, error) {
		wi, w := tasks[i].wi, tasks[i].w
		cfg := noc.DefaultConfig()
		cfg.Width, cfg.Height = w, w
		n := cfg.Nodes()
		level := n / 4
		m := mesh.New(w, w)

		cb, err := chip.ChipPower(power.NominalStates(n), n)
		if err != nil {
			return ScaleRow{}, err
		}

		params := power.DefaultRouterParams45nm(cfg)
		region := sprint.NewRegion(m, 0, level, sprint.Euclidean)
		const rate = 0.15

		// NoC-sprinting.
		net, err := noc.New(cfg, routing.NewCDOR(region), region.ActiveNodes())
		if err != nil {
			return ScaleRow{}, err
		}
		sp.instrument(net, region, fmt.Sprintf("scaling/%dx%d/noc", w, w))
		res, err := noc.RunSynthetic(net, traffic.NewSet(region.ActiveNodes()),
			traffic.NewUniform(level), noc.SimParams{
				InjectionRate: rate, WarmupCycles: sp.Warmup, MeasureCycles: sp.Measure,
				DrainCycles: sp.Drain, Seed: int64(81 + wi), Ctx: sp.Abort,
			})
		if err != nil {
			return ScaleRow{}, err
		}
		nb, err := params.NetworkPower(res.Events, res.MeasureWindow, level, power.Nominal)
		if err != nil {
			return ScaleRow{}, err
		}

		// Full-sprinting: the same endpoints communicating over the whole
		// powered mesh (threads spread by the OS).
		rng := rand.New(rand.NewSource(int64(91 + wi)))
		fset := traffic.RandomSet(n, level, rng)
		fnet, err := noc.New(cfg, routing.NewDOR(m), nil)
		if err != nil {
			return ScaleRow{}, err
		}
		sp.instrument(fnet, nil, fmt.Sprintf("scaling/%dx%d/full", w, w))
		fres, err := noc.RunSynthetic(fnet, fset, traffic.NewUniform(level), noc.SimParams{
			InjectionRate: rate, WarmupCycles: sp.Warmup, MeasureCycles: sp.Measure,
			DrainCycles: sp.Drain, Seed: int64(101 + wi), Ctx: sp.Abort,
		})
		if err != nil {
			return ScaleRow{}, err
		}
		fb, err := params.NetworkPower(fres.Events, fres.MeasureWindow, n, power.Nominal)
		if err != nil {
			return ScaleRow{}, err
		}

		return ScaleRow{
			Width: w, Nodes: n, Level: level,
			NoCShareNominal: cb.Share(power.CompNoC),
			LatencyCut:      1 - res.AvgLatency/fres.AvgLatency,
			PowerSaving:     1 - nb.Total()/fb.Total(),
		}, nil
	})
}

// SensitivityRow is one router configuration of the microarchitecture
// sensitivity sweep.
type SensitivityRow struct {
	VCs, BufferDepth int
	// SaturationRate is the highest offered load (flits/cycle/node, on the
	// sweep grid) the full mesh accepts without saturating under uniform
	// traffic.
	SaturationRate float64
	// ZeroLoadLatency is the low-load average packet latency.
	ZeroLoadLatency float64
}

// SensitivitySweep sweeps VC count and buffer depth (the Table 1 knobs) and
// reports saturation throughput and low-load latency — the standard NoC
// methodology check that the simulator behaves like its references: more
// VCs and deeper buffers buy throughput, not zero-load latency.
// Configurations fan out across sp.Workers; each configuration walks its
// rate ladder serially because the walk stops at the first saturated rate.
// sp.Ctx cancels the sweep and sp.Journal checkpoints it.
func SensitivitySweep(sp NetSimParams) ([]SensitivityRow, error) {
	sp = sp.withDefaults()
	type task struct{ vcs, depth int }
	var tasks []task
	for _, vcs := range []int{2, 4, 8} {
		for _, depth := range []int{2, 4, 8} {
			tasks = append(tasks, task{vcs: vcs, depth: depth})
		}
	}
	keys := make([]string, len(tasks))
	for i, tk := range tasks {
		var err error
		keys[i], err = pointKey("sensitivity", noc.DefaultConfig(), struct {
			VCs   int
			Depth int
		}{tk.vcs, tk.depth}, sp)
		if err != nil {
			return nil, err
		}
	}
	return runPoints(sp, keys, func(_ context.Context, i int) (SensitivityRow, error) {
		return SensitivityPoint(tasks[i].vcs, tasks[i].depth, sp)
	})
}

// SensitivityPoint evaluates one router configuration (VC count, buffer
// depth) of the sensitivity sweep: it walks the rate ladder on the full
// 4×4 mesh until the first saturated rate, reporting the last rate accepted
// and the low-load latency.
func SensitivityPoint(vcs, depth int, sp NetSimParams) (SensitivityRow, error) {
	sp = sp.withDefaults()
	rates := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	cfg := noc.DefaultConfig()
	cfg.VCs, cfg.BufferDepth = vcs, depth
	m := mesh.New(cfg.Width, cfg.Height)
	set := traffic.NewSet(topo.AllNodes(cfg.Nodes()))
	row := SensitivityRow{VCs: vcs, BufferDepth: depth}
	for ri, rate := range rates {
		net, err := noc.New(cfg, routing.NewDOR(m), nil)
		if err != nil {
			return SensitivityRow{}, err
		}
		sp.instrument(net, nil, fmt.Sprintf("sensitivity/v%d_d%d/r%02d", vcs, depth, ri))
		res, err := noc.RunSynthetic(net, set, traffic.NewUniform(set.Size()), noc.SimParams{
			InjectionRate: rate, WarmupCycles: sp.Warmup, MeasureCycles: sp.Measure,
			DrainCycles: sp.Drain, Seed: int64(300 + ri), Ctx: sp.Abort,
		})
		if err != nil {
			return SensitivityRow{}, err
		}
		if ri == 0 {
			row.ZeroLoadLatency = res.AvgLatency
		}
		if res.Saturated {
			break
		}
		row.SaturationRate = rate
	}
	return row, nil
}

// DimDarkPoint is one (budget, benchmark) cell of the dim-vs-dark study.
type DimDarkPoint struct {
	BudgetW   float64
	Benchmark string
	// DarkLevel/DarkPerf: best configuration at the nominal corner (few
	// fast cores, rest dark).
	DarkLevel int
	DarkPerf  float64
	// DimCorner/DimLevel/DimPerf: best configuration over the reduced
	// corners (more, slower cores — dim silicon).
	DimCorner power.Corner
	DimLevel  int
	DimPerf   float64
	// DimWins reports whether dim silicon beat dark silicon at this budget.
	DimWins bool
}

// DimVsDark explores the introduction's "dark or dim silicon" choice: under
// a transient power budget, is it better to sprint few cores at full
// voltage/frequency (dark) or more cores at a reduced corner (dim)?
// Performance is modelled as (f/f_nominal) / T_norm(level): frequency
// scales compute speed, the workload model supplies parallel efficiency.
// Uncore power is charged at its nominal value in both cases. The
// (budget, benchmark) cells fan out across sp.Workers (0 = all cores);
// sp.Ctx cancels the sweep and sp.Journal checkpoints it. The study is
// analytic (no cycle simulation), so sp's simulation windows are unused
// and excluded from the checkpoint keys.
func DimVsDark(s *Sprinter, budgetsW []float64, benchmarks []string, sp NetSimParams) ([]DimDarkPoint, error) {
	if len(budgetsW) == 0 {
		budgetsW = []float64{25, 30, 40, 60, 100}
	}
	if len(benchmarks) == 0 {
		benchmarks = []string{"blackscholes", "dedup", "freqmine"}
	}
	chip := s.cfg.Chip
	n := s.mesh.Nodes()
	// Uncore at nominal: L2 banks, MC, others, plus the sprint region's
	// routers (charged at one tile each, level-dependent).
	uncoreFixed := float64(n)*chip.L2BankW + chip.MCW + chip.OtherW

	corners := []power.Corner{power.Nominal, power.Mid, power.Low}
	type task struct {
		budget float64
		name   string
	}
	var tasks []task
	for _, budget := range budgetsW {
		for _, name := range benchmarks {
			tasks = append(tasks, task{budget: budget, name: name})
		}
	}
	keys := make([]string, len(tasks))
	for i, tk := range tasks {
		var err error
		keys[i], err = ckpt.Key(struct {
			Driver    string
			Config    Config
			BudgetW   float64
			Benchmark string
		}{"dimvsdark", s.cfg, tk.budget, tk.name})
		if err != nil {
			return nil, err
		}
	}
	return runPoints(sp, keys, func(_ context.Context, i int) (DimDarkPoint, error) {
		tk := tasks[i]
		p, err := workload.ByName(tk.name)
		if err != nil {
			return DimDarkPoint{}, err
		}
		pt := DimDarkPoint{BudgetW: tk.budget, Benchmark: tk.name}
		for _, corner := range corners {
			corePower, err := chip.CoreActiveAt(corner)
			if err != nil {
				return DimDarkPoint{}, err
			}
			fr := corner.FreqHz / power.Nominal.FreqHz
			for level := 1; level <= n; level++ {
				total := uncoreFixed + float64(level)*(corePower+chip.NoCTileW) +
					float64(n-level)*chip.CoreGatedW
				if total > tk.budget {
					break // higher levels only cost more
				}
				hops := workload.AvgHops(s.mesh, s.cfg.Master, level, s.cfg.Metric)
				perf := fr / p.NormTime(level, hops)
				if corner == power.Nominal {
					if perf > pt.DarkPerf {
						pt.DarkPerf, pt.DarkLevel = perf, level
					}
				} else if perf > pt.DimPerf {
					pt.DimPerf, pt.DimLevel, pt.DimCorner = perf, level, corner
				}
			}
		}
		pt.DimWins = pt.DimPerf > pt.DarkPerf
		return pt, nil
	})
}

// LLCRow is one configuration of the §3.4 last-level-cache study.
type LLCRow struct {
	Name   string
	Policy cache.HomePolicy
	// AMAT is the average memory access time (cycles).
	AMAT float64
	// L2MissRate is the shared-LLC miss rate.
	L2MissRate float64
	// BypassTransfers counts dark-bank accesses over the bypass path.
	BypassTransfers int64
	// NetPowerW is the network power (routers only; the bypass path's
	// wire energy is folded in as link-class flits).
	NetPowerW float64
	// Cycles is the run length for a fixed amount of memory work.
	Cycles int64
}

// LLCParams sizes the §3.4 study; zero values select defaults matched to
// the scaled-down test hierarchy.
type LLCParams struct {
	Cache           cache.Config
	WorkingSetLines uint64
	SharedLines     uint64
	AccessesPerCore int64
	MaxCycles       int64
	Level           int
	// Sim carries the observational switches. Check, Reference and Obs
	// instrument the study's networks as in every other driver (the cache
	// system steps the network every cycle, so telemetry covers the
	// protocol traffic). Abort, when non-nil, cancels the study at the
	// cache-system cycle loops' 256-cycle polls, so an interrupted run stops
	// promptly instead of riding out millions of cycles; results are
	// identical with or without it. The study reads no other field.
	Sim NetSimParams
}

func (p LLCParams) withDefaults() LLCParams {
	if p.Cache == (cache.Config{}) {
		p.Cache = cache.DefaultConfig()
		// Scale the hierarchy down so the study runs in seconds while
		// keeping the Table 1 shape (capacity ratios preserved).
		p.Cache.L1Sets, p.Cache.L1Ways = 16, 2
		p.Cache.L2Sets, p.Cache.L2Ways = 64, 4
	}
	if p.WorkingSetLines == 0 {
		p.WorkingSetLines = 800
	}
	if p.SharedLines == 0 {
		p.SharedLines = 128
	}
	if p.AccessesPerCore == 0 {
		p.AccessesPerCore = 1500
	}
	if p.MaxCycles == 0 {
		p.MaxCycles = 5_000_000
	}
	if p.Level == 0 {
		p.Level = 4
	}
	return p
}

// LLCStudy reproduces the §3.4 analysis: during a sprint, how should the
// tiled shared LLC interact with network power gating? Three options: keep
// the whole network on (full-sprinting's answer), remap homes onto the
// active banks (capacity loss), or keep all banks reachable through bypass
// paths without waking routers (the paper's adopted technique).
func LLCStudy(s *Sprinter, p LLCParams) ([]LLCRow, error) {
	p = p.withDefaults()
	region := s.Region(p.Level)
	ncfg := s.cfg.NoC
	ncfg.Classes = 2

	run := func(name string, policy cache.HomePolicy, gated bool) (LLCRow, error) {
		var (
			net *noc.Network
			err error
		)
		routers := s.mesh.Nodes()
		if gated {
			net, err = noc.New(ncfg, routing.NewCDOR(region), region.ActiveNodes())
			routers = p.Level
		} else {
			net, err = noc.New(ncfg, routing.NewDOR(s.mesh), nil)
		}
		if err != nil {
			return LLCRow{}, err
		}
		if gated {
			p.Sim.instrument(net, region, "llc/"+name)
		} else {
			p.Sim.instrument(net, nil, "llc/"+name)
		}
		var streamErr error
		mk := func(node int) *cache.Stream {
			st, err := cache.NewStream(cache.StreamParams{
				WorkingSetLines: p.WorkingSetLines,
				SharedLines:     p.SharedLines,
				SeqProb:         0.6,
				SharedProb:      0.2,
				WriteProb:       0.25,
				PrivateBase:     uint64(1+node) << 24,
				Seed:            int64(500 + node),
			})
			if err != nil {
				streamErr = err
			}
			return st
		}
		sys, err := cache.NewSystem(p.Cache, net, region, policy, gated, mk)
		if err != nil {
			return LLCRow{}, err
		}
		if streamErr != nil {
			return LLCRow{}, streamErr
		}
		if err := sys.RunCtx(p.Sim.Abort, p.AccessesPerCore, p.MaxCycles); err != nil {
			return LLCRow{}, fmt.Errorf("core: LLC study %s: %w", name, err)
		}
		st := sys.Stats()
		ns := sys.NetworkStats()
		// Charge bypass flits as link traversals (dedicated wires, no
		// router logic).
		ev := ns.Events
		ev.LinkFlits += st.BypassFlits
		bd, err := s.cfg.Router.NetworkPower(ev, ns.Cycles, routers, s.cfg.Corner)
		if err != nil {
			return LLCRow{}, err
		}
		return LLCRow{
			Name:            name,
			Policy:          policy,
			AMAT:            st.AMAT(),
			L2MissRate:      st.L2MissRate(),
			BypassTransfers: st.BypassTransfers,
			NetPowerW:       bd.Total(),
			Cycles:          sys.Cycles(),
		}, nil
	}

	var rows []LLCRow
	for _, c := range []struct {
		name   string
		policy cache.HomePolicy
		gated  bool
	}{
		{"full network, all banks", cache.HomeAllTiles, false},
		{"gated + remap to active banks", cache.HomeActiveOnly, true},
		{"gated + bypass paths (paper)", cache.HomeAllTiles, true},
	} {
		row, err := run(c.name, c.policy, c.gated)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}
