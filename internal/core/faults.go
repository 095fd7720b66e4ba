package core

import (
	"context"
	"fmt"
	"math/rand"

	"nocsprint/internal/check"
	"nocsprint/internal/ckpt"
	"nocsprint/internal/fault"
	"nocsprint/internal/noc"
	"nocsprint/internal/obs"
	"nocsprint/internal/power"
	"nocsprint/internal/routing"
	"nocsprint/internal/sprint"
	"nocsprint/internal/topo"
)

// The fault-injection experiment: how much of the sprint's capacity
// survives router faults, link faults, and thermal emergencies when the
// governor repairs the region online? Each sweep point runs the
// cycle-accurate simulator under uniform traffic while a seeded fault
// schedule fires; every fault triggers governor policy (region re-formation,
// master election, backoff retries, graceful degradation) applied to the
// live network through the quiesce/drain/reconfigure lifecycle, with the
// runtime invariant checker optionally attached through every repair.

// FaultParams configures the fault-injection sweep; zero values select
// defaults suitable for the 4×4 mesh.
type FaultParams struct {
	// Level is the sprint level at t=0 (default 8).
	Level int
	// Rates lists the sweep points as expected fault events per 10,000
	// cycles (default 1, 2, 4, 8). Event counts are clamped so a schedule
	// can never retire every node.
	Rates []float64
	// Cycles is the injection horizon per point (default 20000); repairs
	// and the final drain run past it.
	Cycles int64
	// DrainBudget bounds each reconfiguration drain (default 4000 cycles).
	DrainBudget int
	// TransientDuration is the outage length of transient faults
	// (default 400 cycles).
	TransientDuration int64
	// InjectionRate is the offered load in flits/node/cycle (default 0.2).
	InjectionRate float64
	// TripTempK is the thermal-emergency trip temperature (default 351.15 K
	// — between the PCM melt point and the junction limit). The trip cycle
	// is derived from the lumped RC model at the initial level's chip power.
	TripTempK float64
	// ThermalSeconds is how much thermal time the horizon spans (default
	// 2.0 s), i.e. secondsPerCycle = ThermalSeconds / Cycles. It places the
	// trip at the same relative position regardless of Cycles.
	ThermalSeconds float64
	// Sim supplies Seed, Workers, and Check; the window fields are unused
	// (this driver manages its own horizon).
	Sim NetSimParams
}

func (p FaultParams) withDefaults() FaultParams {
	if p.Level == 0 {
		p.Level = 8
	}
	if p.Rates == nil {
		p.Rates = []float64{1, 2, 4, 8}
	}
	if p.Cycles == 0 {
		p.Cycles = 20000
	}
	if p.DrainBudget == 0 {
		p.DrainBudget = 4000
	}
	if p.TransientDuration == 0 {
		p.TransientDuration = 400
	}
	if p.InjectionRate == 0 {
		p.InjectionRate = 0.2
	}
	if p.TripTempK == 0 {
		p.TripTempK = 351.15
	}
	if p.ThermalSeconds == 0 {
		p.ThermalSeconds = 2.0
	}
	return p
}

// FaultPoint is one sweep point of the fault-injection experiment.
type FaultPoint struct {
	// Rate is the configured fault rate (events per 10,000 cycles).
	Rate float64
	// Faults is the number of scheduled fault events, split by class.
	Faults, Permanent, Transient, LinkFaults, Trips int
	// Repairs counts reconfigurations that changed the active set;
	// Elections, Degrades, DeclaredDead, and Resumed count governor
	// decisions.
	Repairs, Elections, Degrades, DeclaredDead, Resumed int
	// Availability is the time-averaged fraction of the initially
	// provisioned capacity that stayed active: Σ_cycles active(c) /
	// (cycles × initial level). Any permanent loss or degradation pulls it
	// below 1.
	Availability float64
	// Delivered and Dropped count packets; OfferedDropped counts offers the
	// source refused because an endpoint was dark at enqueue time.
	Delivered, Dropped, OfferedDropped int64
	// DropRate is Dropped / (Delivered + Dropped).
	DropRate float64
	// AvgLatency is mean delivered-packet latency in cycles (source
	// queueing included).
	AvgLatency float64
	// FinalLevel, FinalMaster, and FinalConvex describe the surviving
	// region.
	FinalLevel, FinalMaster int
	FinalConvex             bool
	// Violations counts invariant-checker reports (always 0 on success;
	// a non-zero count also fails the run with the first violation).
	Violations int64
}

// faultMix splits a total event count into permanent/transient/link faults,
// shrinking the total if needed so the schedule stays survivable
// (perm + trans + 2·links < nodes).
func faultMix(total, nodes int) (perm, trans, links int) {
	if total < 1 {
		total = 1
	}
	for {
		perm = (total + 2) / 3
		links = total / 4
		trans = total - perm - links
		if perm+trans+2*links < nodes {
			return perm, trans, links
		}
		total--
	}
}

// cdorValidator is the governor's region-validation hook: a candidate
// repaired region is accepted only if CDOR terminates for every active pair
// and the channel-dependency graph stays acyclic — the same guarantees the
// fault-free regions carry.
func (s *Sprinter) cdorValidator() func(*sprint.Region) error {
	return func(r *sprint.Region) error {
		alg := routing.NewCDOR(r)
		if _, err := routing.BuildTable(topo.FromMesh(s.mesh), alg, r.ActiveNodes()); err != nil {
			return err
		}
		g, err := routing.BuildDependencyGraph(topo.FromMesh(s.mesh), alg, r.ActiveNodes())
		if err != nil {
			return err
		}
		if g.HasCycle() {
			return fmt.Errorf("core: repaired region has cyclic channel dependencies")
		}
		return nil
	}
}

// sprintChipPower returns the total chip power of a sprint at the given
// level with dark tiles gated, including the sprint-activity uncore — the
// constant power the thermal trip derivation integrates.
func (s *Sprinter) sprintChipPower(level int) (float64, error) {
	states := power.SprintStates(s.mesh.Nodes(), level, true)
	chip, err := s.cfg.Chip.ChipPower(states, level)
	if err != nil {
		return 0, err
	}
	return chip.Total() + s.cfg.SprintUncoreW, nil
}

// buildFaultSchedule assembles the seeded schedule for one sweep point:
// router/link faults from the rate, plus the thermal trip derived from the
// lumped model (omitted when the level's power never reaches the trip
// temperature within the horizon).
func (s *Sprinter) buildFaultSchedule(rate float64, p FaultParams, seed int64) (*fault.Schedule, error) {
	total := int(rate*float64(p.Cycles)/10000 + 0.5)
	perm, trans, links := faultMix(total, s.mesh.Nodes())
	sched, err := fault.Generate(fault.GenConfig{
		Width:             s.cfg.NoC.Width,
		Height:            s.cfg.NoC.Height,
		Horizon:           p.Cycles,
		Permanent:         perm,
		Transient:         trans,
		Links:             links,
		TransientDuration: p.TransientDuration,
		Seed:              seed,
	})
	if err != nil {
		return nil, err
	}
	powerW, err := s.sprintChipPower(p.Level)
	if err != nil {
		return nil, err
	}
	trip, ok, err := fault.TripFromLumped(s.cfg.Lumped, powerW, p.TripTempK,
		p.ThermalSeconds/float64(p.Cycles), p.Cycles)
	if err != nil {
		return nil, err
	}
	if !ok {
		return sched, nil
	}
	return fault.New(s.mesh.Nodes(), append(sched.Events(), trip))
}

// obsGovKind maps a governor decision onto its telemetry event kind.
func obsGovKind(k sprint.GovernorEventKind) obs.EventKind {
	switch k {
	case sprint.GovMasterElection:
		return obs.EventMasterElection
	case sprint.GovDegrade:
		return obs.EventDegrade
	case sprint.GovResumeScheduled:
		return obs.EventResumeScheduled
	case sprint.GovResumeFailed:
		return obs.EventResumeFailed
	case sprint.GovResumed:
		return obs.EventResumed
	case sprint.GovDeclaredDead:
		return obs.EventDeclaredDead
	default:
		return obs.EventRepair
	}
}

// FaultRun executes one fault-injection run: traffic under the schedule,
// governor-driven repair applied through Network.Reconfigure, bounded
// drains, and (when p.Sim.Check is set) the invariant checker attached
// across every reconfiguration. It is deterministic in (s, sched, p, seed).
// When p.Sim.Obs is set, the run's collector also carries the full event
// timeline: fault arrivals, every governor decision, sprint-level changes,
// the quiesce/drain phases of each reconfiguration, and — through a thermal
// model scaled to p.ThermalSeconds — the temperature series.
func (s *Sprinter) FaultRun(sched *fault.Schedule, p FaultParams, seed int64) (FaultPoint, error) {
	p = p.withDefaults()
	if p.Level < 2 || p.Level > s.mesh.Nodes() {
		return FaultPoint{}, fmt.Errorf("core: fault run level %d outside [2,%d]", p.Level, s.mesh.Nodes())
	}
	var col *obs.Collector // assigned after the network exists; nil when telemetry is off
	govCfg := sprint.DefaultGovernorConfig()
	govCfg.Validate = s.cdorValidator()
	govCfg.OnEvent = func(ev sprint.GovernorEvent) {
		if col != nil {
			col.Emit(ev.Cycle, obsGovKind(ev.Kind), ev.Node, ev.Detail)
		}
	}
	gov, err := sprint.NewGovernor(s.mesh, s.cfg.Master, p.Level, s.cfg.Metric, govCfg)
	if err != nil {
		return FaultPoint{}, err
	}
	region := gov.Region()
	net, err := noc.New(s.cfg.NoC, routing.NewCDOR(region), region.ActiveNodes())
	if err != nil {
		return FaultPoint{}, err
	}

	var pt FaultPoint
	var probes []noc.Probe
	var firstViolation *check.Violation
	var chk *check.Checker
	if p.Sim.Check {
		chk = check.New(check.Config{
			Region: region,
			Oracle: check.Oracle(routing.NewCDOR(region)),
			OnViolation: func(v *check.Violation) {
				if firstViolation == nil {
					firstViolation = v
				}
			},
		})
		probes = append(probes, chk)
	}
	if p.Sim.Obs != nil {
		// Derive a per-run thermal model on top of the recorder's defaults:
		// the driver knows its own cycle-to-seconds mapping and the chip
		// power baseline, so the temperature series lines up with the
		// schedule's derived trip cycle.
		chipW, err := s.sprintChipPower(p.Level)
		if err != nil {
			return FaultPoint{}, err
		}
		cfg := p.Sim.Obs.Config()
		cfg.Thermal = &obs.ThermalModel{
			Model:           s.cfg.Lumped,
			SecondsPerCycle: p.ThermalSeconds / float64(p.Cycles),
			BasePowerW:      chipW,
			TripK:           p.TripTempK,
			ClearK:          p.TripTempK - 3.0,
		}
		col = p.Sim.Obs.NewCollectorWith(net, fmt.Sprintf("faults/l%d/s%d", p.Level, seed), cfg)
		probes = append(probes, col)
	}
	net.SetProbe(probes...)
	net.UseReferenceStepper(p.Sim.Reference)

	var activeCycles int64 // Σ over cycles of the active-router count
	prevLevel := region.Level()
	reconfigure := func(r *sprint.Region) error {
		oldActive := int64(net.ActiveRouters())
		if col != nil {
			col.Emit(net.Cycle(), obs.EventQuiesce, r.Master(),
				fmt.Sprintf("reconfiguring toward level %d (%d nodes)", r.Level(), len(r.ActiveNodes())))
		}
		rep, err := net.Reconfigure(r.ActiveNodes(), routing.NewCDOR(r), p.DrainBudget)
		if err != nil {
			return err
		}
		// Drain cycles run with the pre-repair router population still up.
		activeCycles += rep.DrainCycles * oldActive
		if rep.Changed {
			pt.Repairs++
		}
		if col != nil {
			col.Emit(net.Cycle(), obs.EventDrained, r.Master(),
				fmt.Sprintf("drained in %d cycles, dropped %d packets / %d flits",
					rep.DrainCycles, rep.PacketsDropped, rep.FlitsDropped))
			if lvl := r.Level(); lvl != prevLevel {
				col.Emit(net.Cycle(), obs.EventSprintLevel, r.Master(),
					fmt.Sprintf("sprint level %d -> %d", prevLevel, lvl))
			}
		}
		prevLevel = r.Level()
		if chk != nil {
			// The fabric is drained at this boundary, so no in-flight hop is
			// ever judged against the wrong region or routing discipline.
			chk.SetRegion(r)
			chk.SetOracle(check.Oracle(routing.NewCDOR(r)))
		}
		return nil
	}

	rng := rand.New(rand.NewSource(seed))
	cur := sched.Cursor()
	net.SetMeasuring(true)
	pktProb := p.InjectionRate / float64(s.cfg.NoC.PacketLength)

	for net.Cycle() < p.Cycles {
		// Point-level abort: polled every 256 cycles (cheap relative to a
		// Step) and only between whole cycles, so an aborted run never
		// leaves the network half-stepped.
		if p.Sim.Abort != nil && net.Cycle()%256 == 0 {
			if err := p.Sim.Abort.Err(); err != nil {
				return pt, fmt.Errorf("core: fault run aborted at cycle %d: %w", net.Cycle(), err)
			}
		}
		now := net.Cycle()
		for _, ev := range cur.Due(now) {
			if col != nil {
				col.Emit(now, obs.EventFault, ev.Node, ev.Describe())
			}
			var (
				r       *sprint.Region
				changed bool
				err     error
			)
			switch ev.Kind {
			case fault.RouterPermanent:
				r, changed, err = gov.PermanentFault(ev.Node, now)
			case fault.RouterTransient:
				r, changed, err = gov.TransientFault(ev.Node, now)
			case fault.LinkPermanent:
				r, changed, err = gov.LinkFault(ev.A, ev.B, now)
			case fault.ThermalTrip:
				r, changed, err = gov.ThermalTrip(now)
			}
			if err != nil {
				return pt, err
			}
			if changed {
				if err := reconfigure(r); err != nil {
					return pt, err
				}
			}
		}
		for node := gov.PendingResume(net.Cycle()); node >= 0; node = gov.PendingResume(net.Cycle()) {
			r, changed, err := gov.TryResume(node, net.Cycle(), sched.HealthyAt(node, net.Cycle()))
			if err != nil {
				return pt, err
			}
			if changed {
				if err := reconfigure(r); err != nil {
					return pt, err
				}
			}
		}
		active := gov.Region().ActiveNodes()
		if len(active) > 1 {
			for i, src := range active {
				if rng.Float64() >= pktProb {
					continue
				}
				j := rng.Intn(len(active) - 1)
				if j >= i {
					j++
				}
				if _, err := net.TryEnqueuePacket(src, active[j], 0, s.cfg.NoC.PacketLength); err != nil {
					pt.OfferedDropped++
				}
			}
		}
		activeCycles += int64(net.ActiveRouters())
		net.Step()
	}
	// Final drain: every remaining endpoint is alive, so everything still
	// in flight or queued must deliver. The generous budget scales with the
	// backlog a saturated region could hold.
	preDrain := int64(net.ActiveRouters())
	drainStart := net.Cycle()
	if err := net.DrainWithBudgetCtx(p.Sim.Abort, 10*int(p.Cycles)); err != nil {
		return pt, fmt.Errorf("core: fault run final drain: %w", err)
	}
	activeCycles += (net.Cycle() - drainStart) * preDrain

	if firstViolation != nil {
		pt.Violations = chk.Violations()
		return pt, fmt.Errorf("core: fault run invariant violations (%d): %w", pt.Violations, firstViolation)
	}

	for _, ev := range sched.Events() {
		pt.Faults++
		switch ev.Kind {
		case fault.RouterPermanent:
			pt.Permanent++
		case fault.RouterTransient:
			pt.Transient++
		case fault.LinkPermanent:
			pt.LinkFaults++
		case fault.ThermalTrip:
			pt.Trips++
		}
	}
	pt.Elections = gov.CountEvents(sprint.GovMasterElection)
	pt.Degrades = gov.CountEvents(sprint.GovDegrade)
	pt.DeclaredDead = gov.CountEvents(sprint.GovDeclaredDead)
	pt.Resumed = gov.CountEvents(sprint.GovResumed)

	st := net.Stats()
	pt.Delivered = st.PacketsEjected
	pt.Dropped = st.PacketsDropped
	if pt.Delivered+pt.Dropped > 0 {
		pt.DropRate = float64(pt.Dropped) / float64(pt.Delivered+pt.Dropped)
	}
	pt.AvgLatency, _ = st.AvgLatency()
	pt.Availability = float64(activeCycles) / (float64(net.Cycle()) * float64(p.Level))
	final := gov.Region()
	pt.FinalLevel = final.Level()
	pt.FinalMaster = gov.Master()
	pt.FinalConvex = final.IsConvex()
	return pt, nil
}

// FaultSweep runs the fault-injection experiment across p.Rates. Each point
// carries its own seed derived from p.Sim.Seed and its index, so results
// are bit-identical at any worker count. p.Sim.Ctx cancels the sweep and
// p.Sim.Journal checkpoints it.
func FaultSweep(s *Sprinter, p FaultParams) ([]FaultPoint, error) {
	p = p.withDefaults()
	type task struct {
		idx  int
		rate float64
	}
	tasks := make([]task, len(p.Rates))
	for i, r := range p.Rates {
		tasks[i] = task{idx: i, rate: r}
	}
	keys := make([]string, len(tasks))
	for i, tk := range tasks {
		var err error
		// The fault driver manages its own horizon, so the key carries the
		// FaultParams knobs rather than the unused NetSimParams windows.
		keys[i], err = ckpt.Key(struct {
			Driver            string
			Config            Config
			Level             int
			RateIdx           int
			Rate              float64
			Cycles            int64
			DrainBudget       int
			TransientDuration int64
			InjectionRate     float64
			TripTempK         float64
			ThermalSeconds    float64
			Seed              int64
		}{"faults", s.cfg, p.Level, tk.idx, tk.rate, p.Cycles, p.DrainBudget,
			p.TransientDuration, p.InjectionRate, p.TripTempK, p.ThermalSeconds, p.Sim.Seed})
		if err != nil {
			return nil, err
		}
	}
	return runPoints(p.Sim, keys, func(_ context.Context, i int) (FaultPoint, error) {
		tk := tasks[i]
		seed := p.Sim.Seed + int64(tk.idx)*1009 + 1
		sched, err := s.buildFaultSchedule(tk.rate, p, seed)
		if err != nil {
			return FaultPoint{}, err
		}
		pt, err := s.FaultRun(sched, p, seed+7777)
		if err != nil {
			return FaultPoint{}, fmt.Errorf("rate %g: %w", tk.rate, err)
		}
		pt.Rate = tk.rate
		return pt, nil
	})
}
