package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"nocsprint/internal/check"
	"nocsprint/internal/fault"
	"nocsprint/internal/noc"
	"nocsprint/internal/obs"
	"nocsprint/internal/routing"
	"nocsprint/internal/sprint"
	"nocsprint/internal/traffic"
)

// The fault-injection experiment: how much of the sprint's capacity
// survives router faults, link faults, and thermal emergencies when the
// governor repairs the region online? Each sweep point runs the
// cycle-accurate simulator under uniform traffic while a seeded fault
// schedule fires; every fault triggers governor policy (region re-formation,
// master election, backoff retries, graceful degradation) applied to the
// live network through the quiesce/drain/reconfigure lifecycle, with the
// runtime invariant checker optionally attached through every repair.

// Fixed settings of the fault-injection experiment.
const (
	// faultDrainBudget bounds each reconfiguration drain, in cycles.
	faultDrainBudget = 4000
	// faultTransientDuration is the outage length of transient faults, in
	// cycles.
	faultTransientDuration = 400
	// faultInjectionRate is the offered load in flits/node/cycle.
	faultInjectionRate = 0.2
	// faultTripTempK is the thermal-emergency trip temperature: between the
	// PCM melt point and the junction limit. The trip cycle is derived from
	// the lumped RC model at the initial level's chip power.
	faultTripTempK = 351.15
	// faultThermalSeconds is how much thermal time the horizon spans, i.e.
	// secondsPerCycle = faultThermalSeconds / Cycles. It places the trip at
	// the same relative position regardless of Cycles.
	faultThermalSeconds = 2.0
)

// FaultParams configures the fault-injection sweep.
type FaultParams struct {
	// Level is the sprint level at t=0, in [2, nodes].
	Level int
	// Rates lists the sweep points as expected fault events per 10,000
	// cycles. Event counts are clamped so a schedule can never retire
	// every node.
	Rates []float64
	// Cycles is the injection horizon per point; repairs and the final
	// drain run past it.
	Cycles int64
	// Sim supplies Seed, Workers, and Check; the runs leave the window
	// fields unused (this driver manages its own horizon), though like every
	// sweep's they enter the checkpoint key.
	Sim NetSimParams
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
		g, err := routing.BuildDependencyGraph(s.mesh, routing.NewCDOR(r), r.ActiveNodes())
		if err != nil {
			return err
		}
		if g.HasCycle() {
			return fmt.Errorf("core: repaired region has cyclic channel dependencies")
		}
		return nil
	}
}

// sprintChipPower returns the power a NoC-sprint at the given level draws —
// the constant power the thermal trip derivation integrates.
func (s *Sprinter) sprintChipPower(level int) (float64, error) {
	chip, _, err := s.chipPower(NoCSprinting, level)
	if err != nil {
		return 0, err
	}
	return s.sprintPower(chip, level), nil
}

// faultTrips derives the sweep's thermal-emergency trip from the lumped
// model at the level's chip power: one event, or none when that power never
// reaches the trip temperature within the horizon. It depends on neither a
// point's rate nor its seed, so FaultSweep derives it once for every point.
func (s *Sprinter) faultTrips(p FaultParams) ([]fault.Event, error) {
	powerW, err := s.sprintChipPower(p.Level)
	if err != nil {
		return nil, err
	}
	trip, ok, err := fault.TripFromLumped(s.cfg.Lumped, powerW, faultTripTempK,
		faultThermalSeconds/float64(p.Cycles), p.Cycles)
	if err != nil || !ok {
		return nil, err
	}
	return []fault.Event{trip}, nil
}

// buildFaultSchedule assembles the seeded schedule for one sweep point:
// router/link faults from the rate, plus the sweep's trips.
func (s *Sprinter) buildFaultSchedule(rate float64, p FaultParams, seed int64, trips []fault.Event) (*fault.Schedule, error) {
	total := int(rate*float64(p.Cycles)/10000 + 0.5)
	perm, trans, links := faultMix(total, s.mesh.Nodes())
	sched, err := fault.Generate(s.mesh, fault.GenConfig{
		Horizon:           p.Cycles,
		Permanent:         perm,
		Transient:         trans,
		Links:             links,
		TransientDuration: faultTransientDuration,
		Seed:              seed,
	})
	if err != nil || len(trips) == 0 {
		return sched, err
	}
	return fault.New(s.mesh.Nodes(), append(sched.Events(), trips...))
}

// FaultRun executes one fault-injection run: traffic under the schedule,
// governor-driven repair applied through Network.Reconfigure, bounded
// drains, and (when p.Sim.Check is set) the invariant checker attached
// across every reconfiguration. It is deterministic in (s, sched, p, seed).
// When p.Sim.Obs is set, the run's collector also carries the full event
// timeline: fault arrivals, every governor decision, sprint-level changes,
// the quiesce/drain phases of each reconfiguration, and — through a thermal
// model scaled to faultThermalSeconds — the temperature series.
func (s *Sprinter) FaultRun(sched *fault.Schedule, p FaultParams, seed int64) (FaultPoint, error) {
	if p.Level < 2 || p.Level > s.mesh.Nodes() {
		return FaultPoint{}, fmt.Errorf("core: fault run level %d outside [2,%d]", p.Level, s.mesh.Nodes())
	}
	if p.Cycles < 1 {
		return FaultPoint{}, fmt.Errorf("core: fault run horizon of %d cycles; it needs at least 1", p.Cycles)
	}
	var col *obs.Collector // assigned after the network exists; nil when telemetry is off
	gov, err := sprint.NewGovernor(s.mesh, s.cfg.Master, p.Level, s.cfg.Metric, sprint.GovernorConfig{
		Validate: s.cdorValidator(),
		OnEvent: func(ev sprint.GovernorEvent) {
			if col != nil {
				col.Emit(ev.Cycle, obs.EventRepair+obs.EventKind(ev.Kind), ev.Node, ev.Detail)
			}
		},
	})
	if err != nil {
		return FaultPoint{}, err
	}
	region := gov.Region()
	f := sprintFabric(region)
	net, err := noc.NewTopo(s.cfg.NoC, f.topo, f.alg, f.active)
	if err != nil {
		return FaultPoint{}, err
	}

	var pt FaultPoint
	var firstViolation *check.Violation
	hooks := probeHooks{onViolation: func(v *check.Violation) {
		if firstViolation == nil {
			firstViolation = v
		}
	}}
	if p.Sim.Obs != nil {
		// Derive a per-run thermal model: FaultRun knows its own
		// cycle-to-seconds mapping and the chip power baseline, so the
		// temperature series lines up with the schedule's derived trip cycle.
		chipW, err := s.sprintChipPower(p.Level)
		if err != nil {
			return FaultPoint{}, err
		}
		hooks.thermal = &obs.ThermalModel{
			Model:           s.cfg.Lumped,
			SecondsPerCycle: faultThermalSeconds / float64(p.Cycles),
			BasePowerW:      chipW,
		}
	}
	var chk *check.Checker
	chk, col = s.instrument(p.Sim, net, region, fmt.Sprintf("faults/l%d/s%d", p.Level, seed), hooks)

	var activeCycles int64 // Σ over cycles of the active-router count
	prevLevel := region.Level()
	// arrivals offers uniform traffic over the current region, rebuilt on
	// every repair; a one-node region has no one to talk to and offers none.
	rng := rand.New(rand.NewSource(seed))
	var arrivals *traffic.Bernoulli
	offer := func(r *sprint.Region) error {
		active := r.ActiveNodes()
		if len(active) < 2 {
			arrivals = nil
			return nil
		}
		b, err := traffic.NewBernoulli(traffic.NewSet(active), traffic.NewUniform(len(active)),
			faultInjectionRate, s.cfg.NoC.PacketLength, rng)
		arrivals = b
		return err
	}
	if err := offer(region); err != nil {
		return FaultPoint{}, err
	}
	reconfigure := func(r *sprint.Region) error {
		oldActive := int64(net.ActiveRouters())
		if col != nil {
			col.Emit(net.Cycle(), obs.EventQuiesce, r.Master(),
				fmt.Sprintf("reconfiguring toward level %d (%d nodes)", r.Level(), len(r.ActiveNodes())))
		}
		rep, err := net.Reconfigure(r.ActiveNodes(), routing.NewCDOR(r), faultDrainBudget)
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
		if err := offer(r); err != nil {
			return err
		}
		if chk != nil {
			// The fabric is drained at this boundary, so no in-flight hop is
			// ever judged against the wrong region or routing discipline.
			chk.SetRegion(r)
			chk.SetOracle(routing.NewCDOR(r).NextPort)
		}
		return nil
	}

	emit := func(src, dst int) {
		if _, err := net.TryEnqueuePacket(src, dst, 0, s.cfg.NoC.PacketLength); err != nil {
			pt.OfferedDropped++
		}
	}
	cur := sched.Cursor()
	cycle := func() error {
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
				return err
			}
			if changed {
				if err := reconfigure(r); err != nil {
					return err
				}
			}
		}
		for node := gov.PendingResume(net.Cycle()); node >= 0; node = gov.PendingResume(net.Cycle()) {
			r, changed, err := gov.TryResume(node, net.Cycle(), sched.HealthyAt(node, net.Cycle()))
			if err != nil {
				return err
			}
			if changed {
				if err := reconfigure(r); err != nil {
					return err
				}
			}
		}
		if arrivals != nil {
			arrivals.Cycle(emit)
		}
		activeCycles += int64(net.ActiveRouters())
		return nil
	}
	net.SetMeasuring(true)
	// Repairs step the network inside cycle, so the horizon, not the step
	// count, ends the run; p.Cycles steps always reach it.
	_, err = net.RunUntil(p.Sim.Abort, int(p.Cycles), cycle, func() bool { return net.Cycle() >= p.Cycles })
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return pt, fmt.Errorf("core: fault run aborted: %w", err)
	}
	if err != nil {
		return pt, err
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
	if len(p.Rates) == 0 {
		return nil, fmt.Errorf("core: fault sweep has no rates")
	}
	// A point's fields, in order, are its checkpoint key.
	type point struct {
		Level   int
		RateIdx int
		Rate    float64
		Cycles  int64
	}
	points := make([]point, len(p.Rates))
	for i, r := range p.Rates {
		points[i] = point{p.Level, i, r, p.Cycles}
	}
	trips, err := s.faultTrips(p)
	if err != nil {
		return nil, err
	}
	return sweep("faults", s.cfg, p.Sim, points, func(pt point) (FaultPoint, error) {
		seed := p.Sim.Seed + int64(pt.RateIdx)*1009 + 1
		sched, err := s.buildFaultSchedule(pt.Rate, p, seed, trips)
		if err != nil {
			return FaultPoint{}, err
		}
		fp, err := s.FaultRun(sched, p, seed+7777)
		if err != nil {
			return FaultPoint{}, fmt.Errorf("rate %g: %w", pt.Rate, err)
		}
		fp.Rate = pt.Rate
		return fp, nil
	})
}
