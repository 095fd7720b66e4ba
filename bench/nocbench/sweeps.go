package main

import (
	"fmt"
	"math/rand"
	"time"

	"nocsprint/internal/core"
	"nocsprint/internal/noc"
	"nocsprint/internal/obs"
	"nocsprint/internal/routing"
	"nocsprint/internal/sprint"
	"nocsprint/internal/topo"
	"nocsprint/internal/traffic"
)

// The sweep workloads call the core drivers exactly as the CLI does. Their
// traced runs replay every point through the public calls the drivers make
// (sprint.NewRegion, routing.New*, noc.New/NewTopo, noc.RunSynthetic,
// power.NetworkPower), with the same seeds, and fail unless the replay
// reproduces the driver's result field for field.

// replayer holds what a replayed synthetic run needs besides its point.
type replayer struct {
	cfg       core.Config
	win       windows
	reference bool
}

// synthRun is one replayed synthetic-traffic simulation.
type synthRun struct {
	fabric  string        // region, full, torus or circulant
	tp      topo.Topology // nil builds the configured mesh with noc.New
	alg     routing.Algorithm
	active  []int // powered routers; nil powers all
	set     *traffic.Set
	routers int // routers NetworkPower prices
	rate    float64
	seed    int64
	power   bool // whether the driver prices this run's power
}

// synth builds, simulates and prices one run, each call under its own span.
func (r replayer) synth(tr *tracer, parent *span, s synthRun) (noc.Result, float64, error) {
	name := "noc.New"
	if s.tp != nil {
		name = "noc.NewTopo"
	}
	sp := tr.begin(parent, name)
	var net *noc.Network
	var err error
	if s.tp == nil {
		net, err = noc.New(r.cfg.NoC, s.alg, s.active)
	} else {
		net, err = noc.NewTopo(r.cfg.NoC, s.tp, s.alg, s.active)
	}
	tr.end(sp)
	if err != nil {
		return noc.Result{}, 0, err
	}
	net.UseReferenceStepper(r.reference)
	sp = tr.begin(parent, "noc.RunSynthetic")
	res, err := noc.RunSynthetic(net, s.set, traffic.NewUniform(s.set.Size()), noc.SimParams{
		InjectionRate: s.rate,
		WarmupCycles:  r.win.warmup,
		MeasureCycles: r.win.measure,
		DrainCycles:   r.win.drain,
		Seed:          s.seed,
	})
	tr.end(sp, "fabric", s.fabric, "cycles", res.Cycles, "window", int64(r.win.warmup+r.win.measure))
	if err != nil || !s.power {
		return res, 0, err
	}
	sp = tr.begin(parent, "power.NetworkPower")
	bd, err := r.cfg.Router.NetworkPower(res.Events, res.MeasureWindow, s.routers, r.cfg.Corner)
	tr.end(sp)
	return res, bd.Total(), err
}

// sweepLayers derives the noc, power and core metrics of a replay from its
// spans, and returns the simulated cycles it counted. Shares are of the
// summed point time, which is the busy time of all replay workers.
func sweepLayers(spans []span) (map[string][]float64, int64) {
	self := selfTimes(spans)
	out := map[string][]float64{}
	fabricNs := map[string]float64{}
	fabricCycles := map[string]int64{}
	var cycles, beyond int64
	var pointNs, nocNs, powerNs, pointMax float64
	for _, s := range spans {
		switch s.Name {
		case "core.point":
			d := float64(s.dur())
			pointNs += d
			pointMax = max(pointMax, d/1e6)
			out["core.point_ms.p50"] = append(out["core.point_ms.p50"], d/1e6)
		case "noc.RunSynthetic":
			f := s.Attrs["fabric"].(string)
			c := s.Attrs["cycles"].(int64)
			fabricNs[f] += float64(self[s.Span])
			fabricCycles[f] += c
			cycles += c
			beyond += c - s.Attrs["window"].(int64)
			nocNs += float64(self[s.Span])
		case "noc.New", "noc.NewTopo":
			out["noc.build_us"] = append(out["noc.build_us"], float64(s.dur())/1e3)
		case "power.NetworkPower":
			out["power.network_us"] = append(out["power.network_us"], float64(s.dur())/1e3)
			powerNs += float64(self[s.Span])
		}
	}
	for f, ns := range fabricNs {
		out["noc.ns_per_cycle."+f] = []float64{ns / float64(fabricCycles[f])}
	}
	if cycles > 0 {
		out["noc.cycles"] = []float64{float64(cycles)}
		out["noc.drain_frac"] = []float64{float64(beyond) / float64(cycles)}
	}
	if pointNs > 0 {
		out["core.point_ms.max"] = []float64{pointMax}
		out["noc.share"] = []float64{nocNs / pointNs}
		out["power.share"] = []float64{powerNs / pointNs}
	}
	return out, cycles
}

// fig11Inst is a Figure 11 sweep: NoC-sprinting regions against randomly
// mapped full-sprinting, over a rate ladder.
type fig11Inst struct {
	c      config
	s      *core.Sprinter
	levels []int
	params core.Fig11Params
	win    windows
}

func newFig11(c config, cfg core.Config, levels []int, rates []float64, samples int, win windows) (instance, error) {
	s, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return &fig11Inst{c: c, s: s, levels: levels, win: win,
		params: core.Fig11Params{Rates: rates, Samples: samples, Sim: win.sim(c)}}, nil
}

// setupFig11Mesh is the paper's headline sweep with core's default rates,
// samples and windows.
func setupFig11Mesh(c config) (instance, error) {
	rates := []float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.70}
	samples, win := 10, defaultWindows
	if c.tiny {
		rates, samples, win = []float64{0.1, 0.6}, 1, tinyWindows
	}
	return newFig11(c, core.DefaultConfig(), []int{4, 8}, rates, samples, win)
}

// setupDark is Figure 11 on a 16x16 chip at low sprint levels and loads,
// where most routers are gated or idle.
func setupDark(c config) (instance, error) {
	n, levels := 16, []int{4, 8, 16, 32}
	rates := []float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30}
	samples, win := 2, defaultWindows
	if c.tiny {
		n, levels, rates, samples, win = 8, []int{4, 8}, []float64{0.05}, 1, tinyWindows
	}
	cfg := core.DefaultConfig()
	cfg.NoC.Width, cfg.NoC.Height = n, n
	cfg.Grid.W, cfg.Grid.H = n, n
	return newFig11(c, cfg, levels, rates, samples, win)
}

func (f *fig11Inst) run() (outcome, error) {
	return driveSweep(f.params.Sim, func(sim core.NetSimParams) (any, error) {
		p := f.params
		p.Sim = sim
		return core.Fig11Sweep(f.s, f.levels, p)
	})
}

func (f *fig11Inst) trace(tr *tracer, want outcome) (traced, error) {
	series := want.result.([]core.Fig11Series)
	rp := replayer{cfg: f.s.Config(), win: f.win, reference: f.c.reference}
	nr := len(f.params.Rates)
	start := time.Now()
	err := parallel(len(f.levels)*nr, f.c.workers, func(i int) error {
		li, ri := i/nr, i%nr
		level, rate := f.levels[li], f.params.Rates[ri]
		root := tr.begin(nil, "core.point")
		pt, err := f.replayPoint(tr, root, rp, level, ri, rate)
		tr.end(root, "level", level, "rate", rate)
		if err != nil {
			return err
		}
		if got := series[li].Points[ri]; pt != got {
			return fmt.Errorf("replay of level %d rate %g gives %+v, the driver %+v", level, rate, pt, got)
		}
		return nil
	})
	wall := time.Since(start)
	if err != nil {
		return traced{}, err
	}
	out, cycles := sweepLayers(tr.snapshot())
	var probes []routeProbe
	m := f.s.Mesh()
	for _, level := range f.levels {
		region := f.s.Region(level)
		probes = append(probes, routeProbe{"cdor", topo.FromMesh(m), routing.NewCDOR(region), region.ActiveNodes()})
	}
	probes = append(probes, routeProbe{"dor", topo.FromMesh(m), routing.NewDOR(m), topo.AllNodes(m.Nodes())})
	var payloads []any
	for _, s := range series {
		for _, p := range s.Points {
			payloads = append(payloads, p)
		}
	}
	if err := traceShared(tr, out, f.c, f.s, "fig11", probes, payloads); err != nil {
		return traced{}, err
	}
	return traced{wall: wall, cycles: cycles, samples: out}, nil
}

// traceShared times the layers every sweep workload exercises the same
// way: NextPort over its routes, the floorplan of its mesh, and journaling
// its points.
func traceShared(tr *tracer, out map[string][]float64, c config, s *core.Sprinter, driver string, probes []routeProbe, payloads []any) error {
	rt, err := probeRouting(tr, probes)
	if err != nil {
		return err
	}
	merge(out, rt)
	fp, err := traceFloorplan(tr, s)
	if err != nil {
		return err
	}
	merge(out, fp)
	ck, err := traceCkpt(tr, c.dir, driver, s.Config(), c.seed, payloads)
	if err != nil {
		return err
	}
	merge(out, ck)
	return nil
}

// replayPoint repeats one (level, rate) cell of Figure 11 the way the
// driver computes it.
func (f *fig11Inst) replayPoint(tr *tracer, root *span, rp replayer, level, ri int, rate float64) (core.Fig11Point, error) {
	cfg, m, seed := f.s.Config(), f.s.Mesh(), f.params.Sim.Seed
	pt := core.Fig11Point{Rate: rate}

	sp := tr.begin(root, "sprint.NewRegion")
	region := sprint.NewRegion(m, cfg.Master, level, cfg.Metric)
	tr.end(sp)
	sp = tr.begin(root, "routing.NewCDOR")
	cdor := routing.NewCDOR(region)
	tr.end(sp)
	res, pw, err := rp.synth(tr, root, synthRun{
		fabric: "region", alg: cdor, active: region.ActiveNodes(),
		set: traffic.NewSet(region.ActiveNodes()), routers: level,
		rate: rate, seed: seed + int64(ri), power: true,
	})
	if err != nil {
		return pt, err
	}
	pt.LatencyNoC, pt.PowerNoC, pt.SaturatedNoC = res.AvgLatency, pw, res.Saturated

	samples := f.params.Samples
	var latSum, powSum float64
	sat := 0
	for sample := 0; sample < samples; sample++ {
		fseed := seed + int64(1e6) + int64(sample)*997 + int64(ri)
		set := traffic.RandomSet(m.Nodes(), level, rand.New(rand.NewSource(fseed)))
		sp := tr.begin(root, "routing.NewDOR")
		dor := routing.NewDOR(m)
		tr.end(sp)
		res, pw, err := rp.synth(tr, root, synthRun{
			fabric: "full", alg: dor, set: set, routers: m.Nodes(),
			rate: rate, seed: fseed, power: true,
		})
		if err != nil {
			return pt, err
		}
		latSum += res.AvgLatency
		powSum += pw
		if res.Saturated {
			sat++
		}
	}
	pt.LatencyFull = latSum / float64(samples)
	pt.PowerFull = powSum / float64(samples)
	pt.SaturatedFull = sat*2 > samples
	return pt, nil
}

func (f *fig11Inst) prepare() error { return nil }
func (f *fig11Inst) close() error   { return nil }

// topoInst is the topology comparison over meshes, tori and circulants of
// two radices.
type topoInst struct {
	c      config
	s      *core.Sprinter
	params core.TopologyParams
	win    windows
}

func setupTopology(c config) (instance, error) {
	s, err := core.New(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	specs := []topo.Spec{
		topo.MeshSpec(4, 4), topo.TorusSpec(4, 4), topo.CirculantSpec(16, 1, 4),
		topo.MeshSpec(8, 8), topo.TorusSpec(8, 8), topo.CirculantSpec(64, 1, 8),
	}
	rates := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	win := defaultWindows
	if c.tiny {
		specs, rates, win = specs[:3], []float64{0.1, 0.9}, tinyWindows
	}
	return &topoInst{c: c, s: s, win: win,
		params: core.TopologyParams{Specs: specs, Rates: rates, Sim: win.sim(c)}}, nil
}

func (t *topoInst) run() (outcome, error) {
	return driveSweep(t.params.Sim, func(sim core.NetSimParams) (any, error) {
		p := t.params
		p.Sim = sim
		return t.s.TopologyStudy(p)
	})
}

// fabricOf names a topology's fabric for noc.ns_per_cycle and its routing
// discipline for routing.nextport_ns.
func fabricOf(tp topo.Topology) (fabric, route string, alg routing.Algorithm, err error) {
	switch tt := tp.(type) {
	case *topo.Mesh:
		return "full", "dor", routing.NewDOR(tt.Mesh()), nil
	case *topo.Torus:
		return "torus", "torus", routing.NewTorusDOR(tt), nil
	case *topo.Circulant:
		alg, err := routing.NewRingCirculant(tt)
		return "circulant", "circulant", alg, err
	}
	return "", "", nil, fmt.Errorf("no routing discipline for %s", tp.Name())
}

func (t *topoInst) trace(tr *tracer, want outcome) (traced, error) {
	rows := want.result.([]core.TopoRow)
	rp := replayer{cfg: t.s.Config(), win: t.win, reference: t.c.reference}
	specs := t.params.Specs
	start := time.Now()
	err := parallel(len(specs), t.c.workers, func(i int) error {
		root := tr.begin(nil, "core.point")
		row, err := t.replayRow(tr, root, rp, specs[i])
		tr.end(root, "spec", specs[i].String())
		if err != nil {
			return err
		}
		if row != rows[i] {
			return fmt.Errorf("replay of %s gives %+v, the driver %+v", specs[i], row, rows[i])
		}
		return nil
	})
	wall := time.Since(start)
	if err != nil {
		return traced{}, err
	}
	out, cycles := sweepLayers(tr.snapshot())
	var probes []routeProbe
	for _, spec := range specs {
		tp, err := spec.Build()
		if err != nil {
			return traced{}, err
		}
		_, route, alg, err := fabricOf(tp)
		if err != nil {
			return traced{}, err
		}
		probes = append(probes, routeProbe{route, tp, alg, topo.AllNodes(tp.Nodes())})
	}
	payloads := make([]any, len(rows))
	for i, r := range rows {
		payloads[i] = r
	}
	if err := traceShared(tr, out, t.c, t.s, "topology", probes, payloads); err != nil {
		return traced{}, err
	}
	return traced{wall: wall, cycles: cycles, samples: out}, nil
}

// replayRow walks one topology's rate ladder the way the driver does.
func (t *topoInst) replayRow(tr *tracer, root *span, rp replayer, spec topo.Spec) (core.TopoRow, error) {
	sp := tr.begin(root, "topo.Build")
	tp, err := spec.Build()
	tr.end(sp)
	if err != nil {
		return core.TopoRow{}, err
	}
	sp = tr.begin(root, "routing.New")
	fabric, _, alg, err := fabricOf(tp)
	tr.end(sp)
	if err != nil {
		return core.TopoRow{}, err
	}
	set := traffic.NewSet(topo.AllNodes(tp.Nodes()))
	row := core.TopoRow{
		Spec: spec.String(), Routing: alg.Name(), Nodes: tp.Nodes(), Ports: tp.Ports(),
		BisectionLinks: topo.CutLinks(tp),
	}
	for ri, rate := range t.params.Rates {
		res, pw, err := rp.synth(tr, root, synthRun{
			fabric: fabric, tp: tp, alg: alg, set: set, routers: tp.Nodes(),
			rate: rate, seed: int64(300 + ri), power: ri == 0,
		})
		if err != nil {
			return row, err
		}
		if ri == 0 {
			row.ZeroLoadLatency, row.LowLoadPowerW = res.AvgLatency, pw
		}
		if res.Saturated {
			break
		}
		row.SaturationRate = rate
	}
	return row, nil
}

func (t *topoInst) prepare() error { return nil }
func (t *topoInst) close() error   { return nil }

// faultsInst is the fault-injection sweep with the invariant checker and a
// telemetry recorder attached.
type faultsInst struct {
	c      config
	s      *core.Sprinter
	params core.FaultParams
}

func setupFaults(c config) (instance, error) {
	s, err := core.New(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	// The rate ladder runs four times over, each point with its own fault
	// schedule: a point's cost depends on how far its schedule degrades the
	// region, and 32 schedules average that out, so the run time hardly
	// depends on the seed. 4 x 50 000 cycles simulate as much as one pass
	// at 200 000.
	ladder := []float64{1, 2, 3, 4, 6, 8, 12, 16}
	var rates []float64
	for k := 0; k < 4; k++ {
		rates = append(rates, ladder...)
	}
	p := core.FaultParams{
		Level: 8, Rates: rates, Cycles: 50000,
		Sim: core.NetSimParams{Seed: c.seed, Workers: c.workers, Reference: c.reference},
	}
	if c.tiny {
		p.Rates, p.Cycles = []float64{2, 8}, 3000
	}
	return &faultsInst{c: c, s: s, params: p}, nil
}

// sweep runs the fault sweep with the checker and recorder switched as
// given. With the recorder on, the outcome carries the simulated cycles its
// collectors observed.
func (f *faultsInst) sweep(check, record bool) (outcome, error) {
	p := f.params
	p.Sim.Check = check
	var rec *obs.Recorder
	if record {
		var err error
		if rec, err = obs.NewRecorder(obs.Config{Interval: 1000}); err != nil {
			return outcome{}, err
		}
		p.Sim.Obs = rec
	}
	out, err := driveSweep(p.Sim, func(sim core.NetSimParams) (any, error) {
		p.Sim = sim
		return core.FaultSweep(f.s, p)
	})
	if err != nil || rec == nil {
		return out, err
	}
	for _, c := range rec.Collectors() {
		c.Finish()
		if s := c.Samples(); len(s) > 0 {
			out.cycles += s[len(s)-1].Cycle
		}
	}
	return out, nil
}

func (f *faultsInst) run() (outcome, error) { return f.sweep(true, true) }

// trace reruns the sweep with each observational switch on alone and both
// off; every combination must give the driver's result.
func (f *faultsInst) trace(tr *tracer, want outcome) (traced, error) {
	type combo struct{ check, record bool }
	wall := map[combo]time.Duration{}
	var cycles int64
	for _, cb := range []combo{{true, true}, {false, false}, {true, false}, {false, true}} {
		root := tr.begin(nil, "core.FaultSweep")
		start := time.Now()
		out, err := f.sweep(cb.check, cb.record)
		wall[cb] = time.Since(start)
		tr.end(root, "check", cb.check, "obs", cb.record)
		if err != nil {
			return traced{}, err
		}
		if out.digest != want.digest {
			return traced{}, fmt.Errorf("fault sweep with check=%v obs=%v gives digest %s, the driver %s",
				cb.check, cb.record, out.digest, want.digest)
		}
		if cb.check && cb.record {
			cycles = out.cycles
		}
	}
	base := wall[combo{false, false}].Seconds()
	out := map[string][]float64{
		"check.overhead_frac": {wall[combo{true, false}].Seconds()/base - 1},
		"obs.overhead_frac":   {wall[combo{false, true}].Seconds()/base - 1},
	}
	if cycles > 0 {
		out["noc.cycles"] = []float64{float64(cycles)}
	}
	points := want.result.([]core.FaultPoint)
	payloads := make([]any, len(points))
	for i, p := range points {
		payloads[i] = p
	}
	m := f.s.Mesh()
	region := f.s.Region(f.params.Level)
	probes := []routeProbe{{"cdor", topo.FromMesh(m), routing.NewCDOR(region), region.ActiveNodes()}}
	if err := traceShared(tr, out, f.c, f.s, "faults", probes, payloads); err != nil {
		return traced{}, err
	}
	return traced{wall: wall[combo{true, true}], cycles: cycles, samples: out}, nil
}

func (f *faultsInst) prepare() error { return nil }
func (f *faultsInst) close() error   { return nil }
