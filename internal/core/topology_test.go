package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"nocsprint/internal/noc"
	"nocsprint/internal/topo"
	"nocsprint/internal/traffic"
)

// TestTopologyStudyRejectsBadRates: a ladder the walk cannot read, one whose
// rates are not finite, positive and rising, fails before any simulation
// with an error naming the first bad rate's index.
func TestTopologyStudyRejectsBadRates(t *testing.T) {
	s := newSprinter(t)
	for _, c := range []struct {
		rates []float64
		index int
	}{
		{[]float64{0.9, 0.1}, 1},
		{[]float64{0.2, 0.1, 0.3}, 1},
		{[]float64{0.1, 0.1}, 1},
		{[]float64{0}, 0},
		{[]float64{-0.1, 0.2}, 0},
		{[]float64{math.NaN()}, 0},
		{[]float64{math.Inf(1)}, 0},
		{[]float64{math.Inf(-1)}, 0},
		{[]float64{0.1, 0.2, math.NaN()}, 2},
		{[]float64{0.1, math.Inf(1)}, 1},
	} {
		_, err := s.TopologyStudy(TopologyParams{
			Specs: []topo.Spec{topo.MeshSpec(4, 4)},
			Rates: c.rates,
			Sim: NetSimParams{Workers: 1, Progress: func(done, total int) {
				t.Errorf("rates %v: sweep ran %d of %d points", c.rates, done, total)
			}},
		})
		if want := fmt.Sprintf("core: topology rate %d ", c.index); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("rates %v: error %v, want one starting %q", c.rates, err, want)
		}
	}
}

// TestTopologyLadderMatchesFullRuns walks rate ladders through TopologyStudy,
// whose rungs after the first stop at their saturation verdict, and through
// a reference walk of full RunSynthetic runs: the rows must be equal. The
// second ladder's first rung saturates, so the zero-load row must come from
// a full run even then.
func TestTopologyLadderMatchesFullRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("an 8x8 torus ladder is too slow for -short")
	}
	s := newSprinter(t)
	sim := NetSimParams{Warmup: 200, Measure: 600, Drain: 4000, Workers: 1}
	specs := []topo.Spec{topo.MeshSpec(4, 4), topo.TorusSpec(4, 4), topo.CirculantSpec(16, 1, 4), topo.TorusSpec(8, 8)}
	for _, rates := range [][]float64{rateLadder, {0.8, 0.9}} {
		rows, err := s.TopologyStudy(TopologyParams{Specs: specs, Rates: rates, Sim: sim})
		if err != nil {
			t.Fatal(err)
		}
		for i, spec := range specs {
			if want := fullLadderRow(t, s, spec, rates, sim); rows[i] != want {
				t.Errorf("rates %v, %s: TopologyStudy row\n%+v\nfull-run row\n%+v", rates, spec, rows[i], want)
			}
		}
	}
}

// fullLadderRow is the topology row of spec computed with every rung run to
// the end of its drain.
func fullLadderRow(t *testing.T, s *Sprinter, spec topo.Spec, rates []float64, sp NetSimParams) TopoRow {
	t.Helper()
	tp, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	f, err := topoFabric(tp)
	if err != nil {
		t.Fatal(err)
	}
	row := TopoRow{Spec: spec.String(), Routing: f.alg.Name(), Nodes: tp.Nodes(), Ports: tp.Ports(), BisectionLinks: topo.CutLinks(tp)}
	set := traffic.NewSet(topo.AllNodes(tp.Nodes()))
	for ri, rate := range rates {
		net, err := noc.NewTopo(s.cfg.NoC, tp, f.alg, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := noc.RunSynthetic(net, set, traffic.NewUniform(set.Size()), noc.SimParams{
			InjectionRate: rate, WarmupCycles: sp.Warmup, MeasureCycles: sp.Measure, DrainCycles: sp.Drain,
			Seed: int64(300 + ri),
		})
		if err != nil {
			t.Fatal(err)
		}
		if ri == 0 {
			bd, err := s.cfg.Router.NetworkPower(res.Events, res.MeasureWindow, tp.Nodes(), s.cfg.Corner)
			if err != nil {
				t.Fatal(err)
			}
			row.ZeroLoadLatency, row.LowLoadPowerW = res.AvgLatency, bd.Total()
		}
		if res.Saturated {
			break
		}
		row.SaturationRate = rate
	}
	return row
}
