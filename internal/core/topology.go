package core

import (
	"fmt"
	"math"

	"nocsprint/internal/routing"
	"nocsprint/internal/topo"
)

// The topology comparison experiment: the paper evaluates NoC-sprinting on
// a 2D mesh, but nothing in the sprinting argument is mesh-specific — the
// topology abstraction (internal/topo) lets the same cycle-accurate
// simulator answer how the interconnect fabric itself shifts the
// latency/saturation/power trade-off. The study sweeps each candidate
// topology's full network over the same uniform-traffic rate ladder and
// reports zero-load latency, saturation throughput, low-load network power,
// and the bisection width the candidate pays for them.

// TopoRow is one topology's row of the comparison table.
type TopoRow struct {
	// Spec identifies the topology ("4x4 mesh", "4x4 torus", "C(16;1,4)").
	Spec string
	// Routing names the deadlock-free routing discipline used.
	Routing string
	// Nodes and Ports give the scale and the per-router radix.
	Nodes, Ports int
	// BisectionLinks is the number of links a balanced bisection cuts —
	// the cost axis the candidates are matched on.
	BisectionLinks int
	// ZeroLoadLatency is the average packet latency at the lowest rate of
	// the ladder, in cycles.
	ZeroLoadLatency float64
	// SaturationRate is the highest offered load (flits/cycle/node) the
	// network accepted without saturating; 0 when even the lowest rate
	// saturated.
	SaturationRate float64
	// LowLoadPowerW is total network power at the lowest rate, in watts.
	LowLoadPowerW float64
}

// TopologyParams configures TopologyStudy.
type TopologyParams struct {
	// Specs are the candidate topologies.
	Specs []topo.Spec
	// Rates is the offered-load ladder walked per topology: at least one
	// rate, finite, positive and strictly rising.
	Rates []float64
	// Sim carries the simulation windows and sweep plumbing (workers,
	// checkpoint journal, cancellation, checker, telemetry).
	Sim NetSimParams
}

// topoFabric is the topology study's fully powered network on t, routed by
// the matching deadlock-free discipline: X-then-Y DOR on the mesh, dateline
// DOR on the torus, greedy dateline routing on ring-circulants.
func topoFabric(t topo.Topology) (fabric, error) {
	f := fabric{topo: t}
	var err error
	switch tt := t.(type) {
	case *topo.Mesh:
		f.alg = routing.NewDOR(tt)
	case *topo.Torus:
		f.alg = routing.NewTorusDOR(tt)
	case *topo.Circulant:
		f.alg, err = routing.NewRingCirculant(tt)
	default:
		err = fmt.Errorf("core: no routing discipline for topology %s", t.Name())
	}
	return f, err
}

// TopologyStudy runs the topology comparison: each candidate spec fans out
// across Sim.Workers as one sweep point (checkpointed under Sim.Journal,
// cancelled by Sim.Ctx) and walks the rate ladder serially until its first
// saturated rate, exactly like the sensitivity sweep. Per-rate seeds are
// fixed, so results are identical at any worker count and across resumes.
func (s *Sprinter) TopologyStudy(p TopologyParams) ([]TopoRow, error) {
	if len(p.Rates) == 0 {
		return nil, fmt.Errorf("core: topology study has no rates")
	}
	for i, rate := range p.Rates {
		// The ladder's first rung is the zero-load row and the walk stops at
		// its first saturated rung, so the rates must rise.
		if math.IsInf(rate, 0) || !(rate > 0) || i > 0 && !(rate > p.Rates[i-1]) {
			return nil, fmt.Errorf("core: topology rate %d (%g) must be finite, positive and above the rate before it", i, rate)
		}
	}
	// A point's fields, in order, are its checkpoint key.
	type point struct {
		Spec  topo.Spec
		Rates []float64
	}
	points := make([]point, len(p.Specs))
	for i, spec := range p.Specs {
		if _, err := spec.Build(); err != nil {
			return nil, err
		}
		points[i] = point{spec, p.Rates}
	}
	return sweep("topology", s.cfg.NoC, p.Sim, points, func(pt point) (TopoRow, error) {
		return s.topologyPoint(pt.Spec, pt.Rates, p.Sim)
	})
}

// topologyPoint evaluates one topology over the rate ladder, pricing the
// network at the ladder's lowest rate.
func (s *Sprinter) topologyPoint(spec topo.Spec, rates []float64, sp NetSimParams) (TopoRow, error) {
	tp, err := spec.Build()
	if err != nil {
		return TopoRow{}, err
	}
	f, err := topoFabric(tp)
	if err != nil {
		return TopoRow{}, err
	}
	low, satRate, err := s.walkLadder(sp, s.cfg.NoC, f, rates, "topology/"+spec.Kind)
	if err != nil {
		return TopoRow{}, err
	}
	bd, err := s.cfg.Router.NetworkPower(low.Events, low.MeasureWindow, tp.Nodes(), s.cfg.Corner)
	if err != nil {
		return TopoRow{}, err
	}
	return TopoRow{
		Spec:            spec.String(),
		Routing:         f.alg.Name(),
		Nodes:           tp.Nodes(),
		Ports:           tp.Ports(),
		BisectionLinks:  topo.CutLinks(tp),
		ZeroLoadLatency: low.AvgLatency,
		SaturationRate:  satRate,
		LowLoadPowerW:   bd.Total(),
	}, nil
}
