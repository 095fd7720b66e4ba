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

	"nocsprint/internal/check"
	"nocsprint/internal/ckpt"
	"nocsprint/internal/floorplan"
	"nocsprint/internal/mesh"
	"nocsprint/internal/noc"
	"nocsprint/internal/obs"
	"nocsprint/internal/power"
	"nocsprint/internal/routing"
	"nocsprint/internal/runner"
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
	// UseFloorplan applies the thermal-aware floorplan (Algorithm 3) when
	// building heat maps.
	UseFloorplan bool
	// SprintUncoreW is the extra dynamic power of the shared uncore (L2
	// banks, memory controller, I/O) under full sprint activity, on top of
	// the idle-calibrated chip model. It is independent of the sprint
	// level — shared resources serve whichever cores are active — and
	// feeds only the thermal duration analysis (§4.4), where McPAT-style
	// full-activity uncore power dominates the gap between sprint levels.
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
		UseFloorplan:  true,
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

// Sprinter is a configured NoC-sprinting system.
type Sprinter struct {
	cfg   Config
	mesh  mesh.Mesh
	order []int
	plan  *floorplan.Plan
}

// New builds a Sprinter: it computes the activation order and, if enabled,
// the thermal-aware floorplan.
func New(cfg Config) (*Sprinter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := mesh.New(cfg.NoC.Width, cfg.NoC.Height)
	order := sprint.ActivationOrder(m, cfg.Master, cfg.Metric)
	plan := floorplan.Identity(m)
	if cfg.UseFloorplan {
		p, err := floorplan.Thermal(m, order)
		if err != nil {
			return nil, err
		}
		plan = p
	}
	return &Sprinter{cfg: cfg, mesh: m, order: order, plan: plan}, nil
}

// Config returns the system configuration.
func (s *Sprinter) Config() Config { return s.cfg }

// Mesh returns the logical mesh.
func (s *Sprinter) Mesh() mesh.Mesh { return s.mesh }

// Plan returns the active floorplan (identity when disabled).
func (s *Sprinter) Plan() *floorplan.Plan { return s.plan }

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
		lvl, _ := p.OptimalLevel(s.mesh, s.cfg.Master, s.mesh.Nodes())
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
}

// Decide evaluates scheme for workload p: level selection, execution time,
// and power state.
func (s *Sprinter) Decide(p workload.Profile, scheme Scheme) (Decision, error) {
	if err := p.Validate(); err != nil {
		return Decision{}, err
	}
	n := s.mesh.Nodes()
	level := s.Level(p, scheme)
	hops := workload.AvgHops(s.mesh, s.cfg.Master, level, s.cfg.Metric)
	execT := p.Time(level, hops)

	var states []power.CoreState
	nocOn := n
	switch scheme {
	case NonSprinting:
		states = power.NominalStates(n)
	case FullSprinting:
		states = power.SprintStates(n, n, true)
	case FineGrained:
		// Optimal level, but no power gating anywhere.
		states = power.SprintStates(n, level, false)
	case NoCSprinting:
		states = power.SprintStates(n, level, true)
		nocOn = level
	default:
		return Decision{}, fmt.Errorf("core: unknown scheme %v", scheme)
	}
	chip, err := s.cfg.Chip.ChipPower(states, nocOn)
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
	// Retry, when non-nil, wraps every sweep point in point-level retry:
	// failures the policy classifies as transient are re-attempted with
	// capped exponential backoff and full jitter, up to the policy's
	// attempt budget; permanent failures (including panics recovered as
	// runner.PointError) surface immediately. A successful retry yields
	// the same result a first-attempt success would — every point is a
	// pure function of its parameters — so Retry is observational like
	// Check and excluded from checkpoint keys. Set the policy's OnRetry
	// callback to make retries visible (the serve layer records them in
	// job results and metrics).
	Retry *runner.RetryPolicy
}

// sweepCtx returns the sweep-level context, defaulting to Background.
func (p NetSimParams) sweepCtx() context.Context {
	if p.Ctx != nil {
		return p.Ctx
	}
	return context.Background()
}

// instrument applies the observational switches to a freshly built network:
// the invariant checker when p.Check is set, a telemetry collector labeled
// label when p.Obs is set, and the reference full-scan stepper when
// p.Reference is set. region carries the sprint region whose containment the
// checker enforces (nil for full-fabric baselines); the hop oracle is built
// from the network's own routing algorithm, which on every core sweep is the
// intended discipline (CDOR, DOR, torus DOR, ring-circulant). None of the
// switches affects simulation results.
func (p NetSimParams) instrument(net *noc.Network, region *sprint.Region, label string) {
	var probes []noc.Probe
	if p.Check {
		probes = append(probes, check.New(check.Config{Region: region, Oracle: check.Oracle(net.Algorithm())}))
	}
	if p.Obs != nil {
		probes = append(probes, p.Obs.NewCollector(net, label))
	}
	net.SetProbe(probes...)
	net.UseReferenceStepper(p.Reference)
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
		routersOn := s.mesh.Nodes()
		if scheme == NoCSprinting {
			routersOn = 1
		}
		bd, err := s.cfg.Router.NetworkPower(noc.Events{}, int64(sp.Measure), routersOn, s.cfg.Corner)
		if err != nil {
			return NetworkEval{}, err
		}
		return NetworkEval{Scheme: scheme, Level: level, NetPower: bd}, nil
	}

	region := s.Region(level)
	var (
		alg     routing.Algorithm
		active  []int
		set     *traffic.Set
		routers int
	)
	switch scheme {
	case FullSprinting:
		alg = routing.NewDOR(s.mesh)
		active = nil // all routers powered
		set = traffic.NewSet(topo.AllNodes(s.mesh.Nodes()))
		routers = s.mesh.Nodes()
	case FineGrained:
		alg = routing.NewCDOR(region)
		active = nil // no gating: every router stays powered
		set = traffic.NewSet(region.ActiveNodes())
		routers = s.mesh.Nodes()
	case NoCSprinting:
		alg = routing.NewCDOR(region)
		active = region.ActiveNodes()
		set = traffic.NewSet(region.ActiveNodes())
		routers = level
	default:
		return NetworkEval{}, fmt.Errorf("core: scheme %v has no network to evaluate", scheme)
	}

	net, err := noc.New(s.cfg.NoC, alg, active)
	if err != nil {
		return NetworkEval{}, err
	}
	if scheme == FullSprinting {
		sp.instrument(net, nil, fmt.Sprintf("eval/%s/%s", p.Name, scheme))
	} else {
		sp.instrument(net, region, fmt.Sprintf("eval/%s/%s", p.Name, scheme))
	}
	pattern := traffic.NewUniform(set.Size())
	res, err := noc.RunSynthetic(net, set, pattern, noc.SimParams{
		InjectionRate: p.InjRate,
		WarmupCycles:  sp.Warmup,
		MeasureCycles: sp.Measure,
		DrainCycles:   sp.Drain,
		Seed:          sp.Seed,
		Ctx:           sp.Abort,
	})
	if err != nil {
		return NetworkEval{}, err
	}
	bd, err := s.cfg.Router.NetworkPower(res.Events, res.MeasureWindow, routers, s.cfg.Corner)
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
	cp := s.cfg.Chip
	activeTile := cp.CoreActiveW + cp.NoCTileW + cp.L2BankW
	var darkTile float64
	switch scheme {
	case FullSprinting, NonSprinting, FineGrained:
		// Network stays powered at dark tiles; fine-grained also leaves
		// cores idling rather than gated.
		darkCore := cp.CoreGatedW
		if scheme == FineGrained {
			darkCore = cp.CoreIdleW
		}
		darkTile = darkCore + cp.NoCTileW + cp.L2BankW
	case NoCSprinting:
		darkTile = cp.CoreGatedW + cp.L2BankW
	default:
		return nil, fmt.Errorf("core: unknown scheme %v", scheme)
	}

	tiles := make([]float64, n)
	for i := range tiles {
		tiles[i] = darkTile
	}
	for _, logical := range s.order[:level] {
		slot := logical
		if useFloorplan {
			slot = s.plan.Pos(logical)
		}
		tiles[slot] = activeTile
	}
	return tiles, nil
}

// HeatMap solves the steady-state heat map of a sprint configuration.
func (s *Sprinter) HeatMap(level int, scheme Scheme, useFloorplan bool) (*thermal.HeatMap, error) {
	tiles, err := s.TilePowerMap(level, scheme, useFloorplan)
	if err != nil {
		return nil, err
	}
	return thermal.SteadyState(s.cfg.Grid, tiles)
}

// SprintThermal returns the sprint phases for workload p under scheme,
// using the scheme's total chip power — plus the sprint-activity uncore
// power for actual sprints — as the constant sprint power.
func (s *Sprinter) SprintThermal(p workload.Profile, scheme Scheme) (thermal.Phases, Decision, error) {
	d, err := s.Decide(p, scheme)
	if err != nil {
		return thermal.Phases{}, Decision{}, err
	}
	powerW := d.Chip.Total()
	if scheme != NonSprinting {
		powerW += s.cfg.SprintUncoreW
	}
	ph, err := s.cfg.Lumped.SprintPhases(powerW)
	if err != nil {
		return thermal.Phases{}, Decision{}, err
	}
	return ph, d, nil
}

// TrafficHeatMap solves a steady-state heat map whose per-tile power comes
// from an actual cycle-accurate network run of workload p under scheme —
// closing the loop from simulated router activity to temperature, rather
// than assuming a constant NoC power per tile as the Figure 12 abstraction
// does. Core and L2 power follow the scheme's power states; each tile's
// network power is its own router's measured events through the DSENT-like
// model (gated routers contribute nothing).
func (s *Sprinter) TrafficHeatMap(p workload.Profile, scheme Scheme, useFloorplan bool, sp NetSimParams) (*thermal.HeatMap, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	sp = sp.withDefaults()
	level := s.Level(p, scheme)
	region := s.Region(level)

	var (
		alg    routing.Algorithm
		active []int
	)
	switch scheme {
	case FullSprinting:
		alg = routing.NewDOR(s.mesh)
	case FineGrained:
		alg = routing.NewCDOR(region)
	case NoCSprinting:
		alg = routing.NewCDOR(region)
		active = region.ActiveNodes()
	default:
		return nil, fmt.Errorf("core: scheme %v has no traffic to map", scheme)
	}

	n := s.mesh.Nodes()
	routerW := make([]float64, n)
	if level >= 2 {
		net, err := noc.New(s.cfg.NoC, alg, active)
		if err != nil {
			return nil, err
		}
		if scheme == FullSprinting {
			sp.instrument(net, nil, fmt.Sprintf("heatmap/%s/%s", p.Name, scheme))
		} else {
			sp.instrument(net, region, fmt.Sprintf("heatmap/%s/%s", p.Name, scheme))
		}
		set := traffic.NewSet(region.ActiveNodes())
		if _, err := noc.RunSynthetic(net, set, traffic.NewUniform(level), noc.SimParams{
			InjectionRate: p.InjRate,
			WarmupCycles:  sp.Warmup,
			MeasureCycles: sp.Measure,
			DrainCycles:   sp.Drain,
			Seed:          sp.Seed,
			Ctx:           sp.Abort,
		}); err != nil {
			return nil, err
		}
		cycles := net.Cycle()
		for id := 0; id < n; id++ {
			if scheme == NoCSprinting && !region.Active(id) {
				continue // gated: no router power at this tile
			}
			bd, err := s.cfg.Router.RouterPower(net.RouterEvents(id), cycles, s.cfg.Corner)
			if err != nil {
				return nil, err
			}
			routerW[id] = bd.Total()
		}
	}

	// Per-tile power: core state + L2 bank + measured router power. The
	// DSENT-scale router numbers (mW) ride on top of the McPAT-scale tile
	// baseline, so the map is dominated by core state — as in the paper —
	// while hot routers add visible gradients.
	cp := s.cfg.Chip
	tiles := make([]float64, n)
	for id := 0; id < n; id++ {
		coreW := cp.CoreGatedW
		if region.Active(id) {
			coreW = cp.CoreActiveW
		} else if scheme == FineGrained {
			coreW = cp.CoreIdleW
		}
		nocW := routerW[id]
		if scheme != NoCSprinting || region.Active(id) {
			// Un-gated tiles also pay the chip-model NoC baseline
			// (links, always-on clocking at McPAT granularity).
			nocW += cp.NoCTileW
		}
		tiles[id] = coreW + cp.L2BankW + nocW
	}
	if useFloorplan {
		remapped := make([]float64, n)
		for logical := 0; logical < n; logical++ {
			remapped[s.plan.Pos(logical)] = tiles[logical]
		}
		tiles = remapped
	}
	return thermal.SteadyState(s.cfg.Grid, tiles)
}
