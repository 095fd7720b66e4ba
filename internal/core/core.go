// Package core is the NoC-Sprinting system itself: it composes the
// topological sprinting order (Algorithm 1), CDOR routing (Algorithm 2),
// thermal-aware floorplanning (Algorithms 3–4), network power gating, and
// the workload/power/thermal models into a Sprinter that answers the
// paper's question for each workload burst: how many cores should sprint,
// over what interconnect, at what power and thermal cost.
package core

import (
	"context"
	"fmt"
	"sync"

	"nocsprint/internal/check"
	"nocsprint/internal/ckpt"
	"nocsprint/internal/floorplan"
	"nocsprint/internal/mesh"
	"nocsprint/internal/noc"
	"nocsprint/internal/obs"
	"nocsprint/internal/power"
	"nocsprint/internal/routing"
	"nocsprint/internal/sprint"
	"nocsprint/internal/thermal"
	"nocsprint/internal/topo"
	"nocsprint/internal/traffic"
	"nocsprint/internal/workload"
)

// Scheme is a sprinting policy.
type Scheme int

// The four schemes the paper compares.
const (
	// NonSprinting always runs the single master core under TDP.
	NonSprinting Scheme = iota
	// FullSprinting activates all cores for every burst (Raghavan et al.).
	FullSprinting
	// FineGrained picks the per-workload optimal core count but leaves
	// inactive cores idle and the network fully powered (Figure 8's naive
	// middle bar).
	FineGrained
	// NoCSprinting is the paper's scheme: optimal core count, convex
	// topology, CDOR routing, and power gating of dark cores and routers.
	NoCSprinting
)

// String returns the scheme name.
func (s Scheme) String() string {
	switch s {
	case NonSprinting:
		return "non-sprinting"
	case FullSprinting:
		return "full-sprinting"
	case FineGrained:
		return "fine-grained"
	case NoCSprinting:
		return "NoC-sprinting"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Schemes lists all schemes in presentation order.
func Schemes() []Scheme {
	return []Scheme{NonSprinting, FullSprinting, FineGrained, NoCSprinting}
}

// Config assembles the full system configuration (paper Table 1 plus the
// power/thermal models).
type Config struct {
	// NoC is the interconnect configuration (Table 1).
	NoC noc.Config
	// Master is the master node (top-left corner, next to the MC).
	Master int
	// Metric is the activation-order metric (Euclidean in the paper).
	Metric sprint.Metric
	// Router is the DSENT-like router power model.
	Router power.RouterParams
	// Chip is the McPAT-like chip power model.
	Chip power.ChipParams
	// Corner is the sprinting operating point.
	Corner power.Corner
	// Lumped is the whole-chip thermal model with PCM.
	Lumped thermal.Lumped
	// Grid is the heat-map solver configuration.
	Grid thermal.GridConfig
	// SprintUncoreW is the extra dynamic power of the shared uncore (L2
	// banks, memory controller, I/O) under full sprint activity, on top of
	// the idle-calibrated chip model. It is independent of the sprint
	// level — shared resources serve whichever cores are active — and is
	// charged whenever more than one core runs (Decision.PowerW). It feeds
	// only the thermal models (§4.4's durations, the burst controller, the
	// fault sweep's trip), where McPAT-style full-activity uncore power
	// dominates the gap between sprint levels.
	SprintUncoreW float64
}

// DefaultConfig returns the paper's evaluated system: 16 Alpha-class cores
// at 2 GHz on a 4×4 mesh with 4 VCs, 4-flit buffers, 5-flit packets.
func DefaultConfig() Config {
	nc := noc.DefaultConfig()
	return Config{
		NoC:           nc,
		Master:        0,
		Metric:        sprint.Euclidean,
		Router:        power.DefaultRouterParams45nm(nc),
		Chip:          power.DefaultChipParams(),
		Corner:        power.Nominal,
		Lumped:        thermal.DefaultLumped(),
		Grid:          thermal.DefaultGridConfig(),
		SprintUncoreW: 85.0,
	}
}

// Validate reports the first invalid configuration field, or nil.
func (c Config) Validate() error {
	if err := c.NoC.Validate(); err != nil {
		return err
	}
	if c.Master < 0 || c.Master >= c.NoC.Nodes() {
		return fmt.Errorf("core: master %d outside %d-node mesh", c.Master, c.NoC.Nodes())
	}
	if err := c.Corner.Validate(); err != nil {
		return err
	}
	if err := c.Lumped.Validate(); err != nil {
		return err
	}
	if err := c.Grid.Validate(); err != nil {
		return err
	}
	if c.Grid.W != c.NoC.Width || c.Grid.H != c.NoC.Height {
		return fmt.Errorf("core: thermal grid %dx%d does not match mesh %dx%d",
			c.Grid.W, c.Grid.H, c.NoC.Width, c.NoC.Height)
	}
	return nil
}

// Sprinter is a configured NoC-sprinting system. Sweep workers share one
// Sprinter, so it must not be copied after New.
type Sprinter struct {
	cfg   Config
	mesh  mesh.Mesh
	order []int
	// planOnce builds plan, or planErr, on the first read of the floorplan:
	// only heat maps and wire lengths read it.
	planOnce sync.Once
	plan     *floorplan.Plan
	planErr  error
}

// New builds a Sprinter: it computes the activation order. The floorplan is
// built on first use.
func New(cfg Config) (*Sprinter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := mesh.New(cfg.NoC.Width, cfg.NoC.Height)
	return &Sprinter{cfg: cfg, mesh: m, order: sprint.ActivationOrder(m, cfg.Master, cfg.Metric)}, nil
}

// Config returns the system configuration.
func (s *Sprinter) Config() Config { return s.cfg }

// Mesh returns the logical mesh.
func (s *Sprinter) Mesh() mesh.Mesh { return s.mesh }

// activePlan builds Algorithm 4's floorplan once, on the first call from any
// goroutine, and returns it with its construction error.
func (s *Sprinter) activePlan() (*floorplan.Plan, error) {
	s.planOnce.Do(func() { s.plan, s.planErr = floorplan.Thermal(s.mesh, s.order) })
	return s.plan, s.planErr
}

// ActivationOrder returns Algorithm 1's node order (a copy).
func (s *Sprinter) ActivationOrder() []int { return append([]int(nil), s.order...) }

// Region returns the sprint region at the given level.
func (s *Sprinter) Region(level int) *sprint.Region {
	return sprint.NewRegion(s.mesh, s.cfg.Master, level, s.cfg.Metric)
}

// Level returns the core count a scheme activates for profile p: 1 for
// non-sprinting, all for full-sprinting, the profiled optimum otherwise.
func (s *Sprinter) Level(p workload.Profile, scheme Scheme) int {
	switch scheme {
	case NonSprinting:
		return 1
	case FullSprinting:
		return s.mesh.Nodes()
	default:
		lvl, _ := p.OptimalLevel(s.mesh, s.order)
		return lvl
	}
}

// Decision is the outcome of a sprint-mode selection for one workload.
type Decision struct {
	// Scheme is the policy that produced this decision.
	Scheme Scheme
	// Level is the number of active cores.
	Level int
	// ExecSeconds is the modelled execution time of the measured window.
	ExecSeconds float64
	// Speedup is relative to non-sprinting (single core).
	Speedup float64
	// CorePowerW is the Figure 8 metric: core power only.
	CorePowerW float64
	// Chip is the full chip power breakdown during the sprint.
	Chip power.ChipBreakdown
	// NoCTilesOn is the number of powered routers.
	NoCTilesOn int
	// PowerW is the constant power the sprint draws, which the thermal
	// models integrate: the chip total plus, when more than one core runs,
	// the sprint-activity uncore.
	PowerW float64
}

// darkState is what scheme keeps powered on the tiles a sprint leaves dark:
// whether their cores idle (clock-gated, still leaking) rather than being
// power-gated, and whether their routers stay on. Fine-grained sprinting
// idles the dark cores under a fully powered network (Figure 8's middle
// bar); NoC-sprinting gates the dark cores and their routers (§3.1);
// non- and full-sprinting gate dark cores and keep every router on.
func darkState(scheme Scheme) (idleCores, routersOn bool, err error) {
	switch scheme {
	case NonSprinting, FullSprinting:
		return false, true, nil
	case FineGrained:
		return true, true, nil
	case NoCSprinting:
		return false, false, nil
	}
	return false, false, fmt.Errorf("core: unknown scheme %v", scheme)
}

// chipPower prices scheme's sprint at level with the chip model: level
// active cores, the dark rest idle or gated, and the routers darkState keeps
// on, whose count it also returns.
func (s *Sprinter) chipPower(scheme Scheme, level int) (power.ChipBreakdown, int, error) {
	idleCores, routersOn, err := darkState(scheme)
	if err != nil {
		return nil, 0, err
	}
	n := s.mesh.Nodes()
	idle, gated, nocOn := 0, n-level, level
	if idleCores {
		idle, gated = gated, 0
	}
	if routersOn {
		nocOn = n
	}
	chip, err := s.cfg.Chip.ChipPower(level, idle, gated, nocOn)
	return chip, nocOn, err
}

// sprintPower is the constant power a sprint at level draws: the chip
// total, plus the shared uncore's sprint activity (SprintUncoreW) when more
// than one core runs. A level-1 "sprint" is nominal operation and pays no
// uncore.
func (s *Sprinter) sprintPower(chip power.ChipBreakdown, level int) float64 {
	w := chip.Total()
	if level > 1 {
		w += s.cfg.SprintUncoreW
	}
	return w
}

// Decide evaluates scheme for workload p: level selection, execution time,
// and power state.
func (s *Sprinter) Decide(p workload.Profile, scheme Scheme) (Decision, error) {
	if err := p.Validate(); err != nil {
		return Decision{}, err
	}
	level := s.Level(p, scheme)
	execT := p.Time(level, workload.AvgHops(s.mesh, s.order[:level]))
	chip, nocOn, err := s.chipPower(scheme, level)
	if err != nil {
		return Decision{}, err
	}
	return Decision{
		Scheme:      scheme,
		Level:       level,
		ExecSeconds: execT,
		Speedup:     p.Time(1, 0) / execT,
		CorePowerW:  chip[power.CompCore],
		Chip:        chip,
		NoCTilesOn:  nocOn,
		PowerW:      s.sprintPower(chip, level),
	}, nil
}

// NetworkEval is the result of running the cycle-accurate NoC under a
// workload's traffic for one scheme (Figures 9 and 10).
type NetworkEval struct {
	// Scheme and Level as in Decision.
	Scheme Scheme
	Level  int
	// AvgLatency is mean packet latency in cycles.
	AvgLatency float64
	// NetPower is the DSENT-model network power breakdown.
	NetPower power.Breakdown
	// Saturated indicates the offered load exceeded network capacity.
	Saturated bool
}

// NetSimParams bundles the simulation lengths used by network evaluations;
// zero values select defaults suitable for the 4×4 mesh.
type NetSimParams struct {
	Warmup, Measure, Drain int
	Seed                   int64
	// Workers is the experiment-runner fan-out for sweep-shaped drivers:
	// 0 uses all cores (GOMAXPROCS), 1 runs serially, n > 1 uses exactly n
	// goroutines. Each sweep point carries its own seed, so results are
	// identical at any worker count.
	Workers int
	// Check attaches the runtime invariant checker (internal/check) to
	// every network the drivers build, making each sweep point
	// self-validating: any conservation, credit, gating, routing, or
	// progress violation aborts the run with a state snapshot. The checker
	// is observational, so results are identical with it on or off.
	Check bool
	// Ctx is the sweep-level context. When it is cancelled, sweep drivers
	// stop claiming new points promptly, let in-flight points run to
	// completion (journaling them if Journal is set), and return an error
	// satisfying errors.Is(err, Ctx.Err()). Nil means the sweep is never
	// cancelled. Cancellation never perturbs the points that do complete.
	Ctx context.Context
	// Abort is the point-level context, threaded into the cycle loops of
	// every simulation a driver runs: cancelling it stops in-flight points
	// mid-run at cycle granularity (never mid-Step). An aborted point is
	// not journaled, so a later resume recomputes it from scratch. Nil
	// means in-flight points always run to completion — the graceful
	// interrupt path cancels Ctx only.
	Abort context.Context
	// Journal, when non-nil, makes the sweep crash-safe: every completed
	// point is appended (and fsynced) under a canonical key of its
	// configuration and seed the moment it finishes, and points whose key
	// the journal already holds are decoded instead of recomputed. A sweep
	// resumed from a journal produces output bit-identical to an
	// uninterrupted run, at any worker count and with Check on or off
	// (neither enters the key: both are proven not to affect results).
	Journal *ckpt.Journal
	// Reference switches every network the drivers build to the
	// pre-optimization full-scan stepper (noc.UseReferenceStepper).
	// Observational like Check — the zero-drift equivalence suite proves
	// results are bit-identical either way — so it is likewise excluded
	// from checkpoint keys; it exists so sweeps can be replayed on the
	// reference pipeline when auditing the optimized stepper.
	Reference bool
	// Obs, when non-nil, attaches a telemetry collector (internal/obs) to
	// every network the drivers build, labeled with the driver and sweep
	// point so per-point series and event timelines can be exported after
	// the sweep. Observational like Check and Reference (the zero-drift
	// suite proves bit-identical results with it on or off), so it too is
	// excluded from checkpoint keys; on a journal resume, only freshly
	// computed points produce collectors — decoded points never re-run, so
	// the export is checkpoint-safe but covers the resumed work only.
	Obs *obs.Recorder
	// Progress, when non-nil, is called as sweep points resolve (computed or
	// decoded from the journal) with the running done count and the sweep
	// total. Calls may come from concurrent workers; keep the callback cheap
	// and thread-safe (the CLI publishes the counts through expvar).
	Progress func(done, total int)
}

// sweepCtx returns the sweep-level context, defaulting to Background.
func (p NetSimParams) sweepCtx() context.Context {
	if p.Ctx != nil {
		return p.Ctx
	}
	return context.Background()
}

// probeHooks are a caller's settings for the probes instrument builds. The
// zero value keeps the defaults: a checker that panics on a violation, and a
// collector with the recorder's configuration.
type probeHooks struct {
	// onViolation, when set, receives the checker's violations.
	onViolation func(*check.Violation)
	// thermal, when set, replaces the collector's thermal model.
	thermal *obs.ThermalModel
}

// instrument applies the observational switches to a freshly built network:
// the invariant checker when p.Check is set, a telemetry collector labeled
// label when p.Obs is set, and the reference full-scan stepper when
// p.Reference is set. It is the one place sweeps build checkers and
// collectors, and it returns the ones it attached (nil when off). region
// carries the sprint region whose containment the checker enforces (nil for
// full-fabric baselines); the hop oracle is built from the network's own
// routing algorithm, which on every core sweep is the intended discipline
// (CDOR, DOR, torus DOR, ring-circulant). None of the switches affects
// simulation results.
func (p NetSimParams) instrument(net *noc.Network, region *sprint.Region, label string, h probeHooks) (*check.Checker, *obs.Collector) {
	var (
		probes []noc.Probe
		chk    *check.Checker
		col    *obs.Collector
	)
	if p.Check {
		chk = check.New(check.Config{Region: region, Oracle: check.Oracle(net.Algorithm()), OnViolation: h.onViolation})
		probes = append(probes, chk)
	}
	if p.Obs != nil {
		cfg := p.Obs.Config()
		if h.thermal != nil {
			cfg.Thermal = h.thermal
		}
		col = p.Obs.NewCollector(net, label, cfg)
		probes = append(probes, col)
	}
	net.SetProbe(probes...)
	net.UseReferenceStepper(p.Reference)
	return chk, col
}

// fabric is one simulated network: its routing discipline, an optional
// non-mesh topology (nil builds the config's mesh), its powered routers (nil
// powers all), the sprint region the checker enforces (nil for full-fabric
// baselines), and how many routers the power model prices.
type fabric struct {
	alg     routing.Algorithm
	topo    topo.Topology
	active  []int
	region  *sprint.Region
	routers int
}

// sprintFabric is NoC-sprinting's network: CDOR over the sprint region with
// every dark router gated.
func sprintFabric(r *sprint.Region) fabric {
	return fabric{alg: routing.NewCDOR(r), active: r.ActiveNodes(), region: r, routers: r.Level()}
}

// fineFabric is fine-grained sprinting's network: CDOR over the sprint region
// with no gating, so every router stays powered.
func fineFabric(r *sprint.Region) fabric {
	return fabric{alg: routing.NewCDOR(r), region: r, routers: r.Mesh().Nodes()}
}

// meshFabric is the fully powered DOR mesh of full-sprinting.
func meshFabric(m mesh.Mesh) fabric {
	return fabric{alg: routing.NewDOR(m), routers: m.Nodes()}
}

// schemeFabric maps a sprinting scheme to its network at region's level: the
// gated region for NoC-sprinting, the ungated region for fine-grained
// sprinting, and the full mesh for full-sprinting.
func (s *Sprinter) schemeFabric(scheme Scheme, region *sprint.Region) (fabric, error) {
	switch scheme {
	case FullSprinting:
		return meshFabric(s.mesh), nil
	case FineGrained:
		return fineFabric(region), nil
	case NoCSprinting:
		return sprintFabric(region), nil
	}
	return fabric{}, fmt.Errorf("core: scheme %v has no network to simulate", scheme)
}

// build is how every sweep but FaultRun (whose network outlives repairs
// that swap its region and routing) constructs a network: f's network under
// cfg, instrumented per p and labelled label.
func (p NetSimParams) build(cfg noc.Config, f fabric, label string) (*noc.Network, error) {
	var (
		net *noc.Network
		err error
	)
	if f.topo != nil {
		net, err = noc.NewTopo(cfg, f.topo, f.alg, f.active)
	} else {
		net, err = noc.New(cfg, f.alg, f.active)
	}
	if err != nil {
		return nil, err
	}
	p.instrument(net, f.region, label, probeHooks{})
	return net, nil
}

// run drives net with uniform traffic among set's endpoints at rate over p's
// warmup, measure and drain windows, aborting with p.Abort.
func (p NetSimParams) run(net *noc.Network, set *traffic.Set, rate float64, seed int64) (noc.Result, error) {
	return noc.RunSynthetic(net, set, traffic.NewUniform(set.Size()), p.sim(rate, seed))
}

// sim is the noc.SimParams of a run at rate with seed over p's windows,
// aborted by p.Abort.
func (p NetSimParams) sim(rate float64, seed int64) noc.SimParams {
	return noc.SimParams{
		InjectionRate: rate,
		WarmupCycles:  p.Warmup,
		MeasureCycles: p.Measure,
		DrainCycles:   p.Drain,
		Seed:          seed,
		Ctx:           p.Abort,
	}
}

func (p NetSimParams) withDefaults() NetSimParams {
	if p.Warmup == 0 {
		p.Warmup = 1500
	}
	if p.Measure == 0 {
		p.Measure = 4000
	}
	if p.Drain == 0 {
		p.Drain = 40000
	}
	return p
}

// EvaluateNetwork runs workload p's traffic through the real simulator
// under the given scheme: full-sprinting uses the whole mesh with DOR,
// NoC-sprinting (or fine-grained) uses the sprint region with CDOR and, for
// NoC-sprinting, gates the dark routers. Fine-grained keeps all routers
// powered (no gating) but still communicates within the region.
func (s *Sprinter) EvaluateNetwork(p workload.Profile, scheme Scheme, sp NetSimParams) (NetworkEval, error) {
	if err := p.Validate(); err != nil {
		return NetworkEval{}, err
	}
	sp = sp.withDefaults()
	level := s.Level(p, scheme)
	if level < 2 {
		// A single-node "network" exchanges no traffic; report an idle
		// network at the appropriate power state.
		_, routersOn, err := s.chipPower(scheme, level)
		if err != nil {
			return NetworkEval{}, err
		}
		bd, err := s.cfg.Router.NetworkPower(noc.Events{}, int64(sp.Measure), routersOn, s.cfg.Corner)
		if err != nil {
			return NetworkEval{}, err
		}
		return NetworkEval{Scheme: scheme, Level: level, NetPower: bd}, nil
	}

	region := s.Region(level)
	f, err := s.schemeFabric(scheme, region)
	if err != nil {
		return NetworkEval{}, err
	}
	// Full-sprinting spreads the traffic over every node of the mesh.
	set := traffic.NewSet(region.ActiveNodes())
	if scheme == FullSprinting {
		set = traffic.NewSet(topo.AllNodes(s.mesh.Nodes()))
	}
	net, err := sp.build(s.cfg.NoC, f, fmt.Sprintf("eval/%s/%s", p.Name, scheme))
	if err != nil {
		return NetworkEval{}, err
	}
	res, err := sp.run(net, set, p.InjRate, sp.Seed)
	if err != nil {
		return NetworkEval{}, err
	}
	bd, err := s.cfg.Router.NetworkPower(res.Events, res.MeasureWindow, f.routers, s.cfg.Corner)
	if err != nil {
		return NetworkEval{}, err
	}
	return NetworkEval{
		Scheme:     scheme,
		Level:      level,
		AvgLatency: res.AvgLatency,
		NetPower:   bd,
		Saturated:  res.Saturated,
	}, nil
}

// TilePowerMap returns the per-physical-tile power map of a sprint at the
// given level under scheme, for the thermal grid. When useFloorplan is
// true, active logical tiles are placed through the thermal-aware plan.
func (s *Sprinter) TilePowerMap(level int, scheme Scheme, useFloorplan bool) ([]float64, error) {
	n := s.mesh.Nodes()
	if level < 1 || level > n {
		return nil, fmt.Errorf("core: level %d outside [1,%d]", level, n)
	}
	idleCores, routersOn, err := darkState(scheme)
	if err != nil {
		return nil, err
	}
	cp := s.cfg.Chip
	darkCore, darkNoC := cp.CoreGatedW, 0.0
	if idleCores {
		darkCore = cp.CoreIdleW
	}
	if routersOn {
		darkNoC = cp.NoCTileW
	}
	activeTile := cp.CoreActiveW + cp.NoCTileW + cp.L2BankW
	darkTile := darkCore + darkNoC + cp.L2BankW

	slot, err := s.slots(useFloorplan)
	if err != nil {
		return nil, err
	}
	tiles := make([]float64, n)
	for i := range tiles {
		tiles[i] = darkTile
	}
	for _, logical := range s.order[:level] {
		tiles[slot(logical)] = activeTile
	}
	return tiles, nil
}

// slots returns where each logical tile sits on the die: through the
// thermal-aware plan when useFloorplan is true, in place otherwise.
func (s *Sprinter) slots(useFloorplan bool) (func(logical int) int, error) {
	if !useFloorplan {
		return func(logical int) int { return logical }, nil
	}
	plan, err := s.activePlan()
	if err != nil {
		return nil, err
	}
	return plan.Pos, nil
}

// HeatMap solves the steady-state heat map of a sprint configuration.
func (s *Sprinter) HeatMap(level int, scheme Scheme, useFloorplan bool) (*thermal.HeatMap, error) {
	tiles, err := s.TilePowerMap(level, scheme, useFloorplan)
	if err != nil {
		return nil, err
	}
	return thermal.SteadyState(s.cfg.Grid, tiles)
}

// SprintThermal returns the sprint phases for workload p under scheme at
// the decision's constant sprint power (Decision.PowerW).
func (s *Sprinter) SprintThermal(p workload.Profile, scheme Scheme) (thermal.Phases, Decision, error) {
	d, err := s.Decide(p, scheme)
	if err != nil {
		return thermal.Phases{}, Decision{}, err
	}
	ph, err := s.cfg.Lumped.SprintPhases(d.PowerW)
	if err != nil {
		return thermal.Phases{}, Decision{}, err
	}
	return ph, d, nil
}
