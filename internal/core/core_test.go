package core

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"nocsprint/internal/floorplan"
	"nocsprint/internal/power"
	"nocsprint/internal/sprint"
	"nocsprint/internal/thermal"
	"nocsprint/internal/traffic"
	"nocsprint/internal/workload"
)

func newSprinter(t *testing.T) *Sprinter {
	t.Helper()
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// fastSim keeps unit-test simulations short.
var fastSim = NetSimParams{Warmup: 300, Measure: 1000, Drain: 10000}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidateCatchesErrors(t *testing.T) {
	muts := []func(*Config){
		func(c *Config) { c.NoC.VCs = 0 },
		func(c *Config) { c.Master = -1 },
		func(c *Config) { c.Master = 99 },
		func(c *Config) { c.Corner.VDD = 0 },
		func(c *Config) { c.Corner.FreqHz = math.NaN() },
		func(c *Config) { c.Lumped.RthKperW = 0 },
		func(c *Config) { c.Grid.Sub = 0 },
		func(c *Config) { c.Grid.W = 7 },
	}
	for i, mut := range muts {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestSchemeStrings(t *testing.T) {
	want := map[Scheme]string{
		NonSprinting: "non-sprinting", FullSprinting: "full-sprinting",
		FineGrained: "fine-grained", NoCSprinting: "NoC-sprinting",
	}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("%d stringifies to %q", int(s), s.String())
		}
	}
	if Scheme(9).String() == "" || len(Schemes()) != 4 {
		t.Error("scheme enumeration broken")
	}
}

func TestLevelPerScheme(t *testing.T) {
	s := newSprinter(t)
	dedup, err := workload.ByName("dedup")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Level(dedup, NonSprinting); got != 1 {
		t.Errorf("non-sprinting level = %d", got)
	}
	if got := s.Level(dedup, FullSprinting); got != 16 {
		t.Errorf("full-sprinting level = %d", got)
	}
	if got := s.Level(dedup, NoCSprinting); got != 4 {
		t.Errorf("NoC-sprinting level for dedup = %d, want 4", got)
	}
	if got := s.Level(dedup, FineGrained); got != 4 {
		t.Errorf("fine-grained level for dedup = %d, want 4", got)
	}
}

// TestLevelFollowsMetric: the profiled level is optimal over the Sprinter's
// own activation order, the one whose hops Decide prices, whatever the
// metric. On a 5x5 mesh grown by Hamming distance, an order fixed to
// Euclidean picks level 15 for bodytrack where 16 is faster.
func TestLevelFollowsMetric(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NoC.Width, cfg.NoC.Height = 5, 5
	cfg.Grid.W, cfg.Grid.H = 5, 5
	cfg.Metric = sprint.Hamming
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, order := s.Mesh(), s.ActivationOrder()
	for _, p := range workload.Profiles() {
		level := s.Level(p, NoCSprinting)
		at := p.NormTime(level, workload.AvgHops(m, order[:level]))
		for n := 1; n <= len(order); n++ {
			if tn := p.NormTime(n, workload.AvgHops(m, order[:n])); tn < at {
				t.Errorf("%s: level %d (T=%.6f), but level %d is faster (T=%.6f)", p.Name, level, at, n, tn)
			}
		}
	}
}

func TestDecideOrderings(t *testing.T) {
	s := newSprinter(t)
	dedup, err := workload.ByName("dedup")
	if err != nil {
		t.Fatal(err)
	}
	var d = map[Scheme]Decision{}
	for _, scheme := range Schemes() {
		dec, err := s.Decide(dedup, scheme)
		if err != nil {
			t.Fatal(err)
		}
		d[scheme] = dec
	}
	// Core power: full > fine-grained > NoC-sprinting (Figure 8).
	if !(d[FullSprinting].CorePowerW > d[FineGrained].CorePowerW &&
		d[FineGrained].CorePowerW > d[NoCSprinting].CorePowerW) {
		t.Errorf("core power ordering wrong: %+v", d)
	}
	// Execution time: NoC-sprinting fastest for dedup; non-sprinting slowest.
	if !(d[NoCSprinting].ExecSeconds < d[FullSprinting].ExecSeconds &&
		d[FullSprinting].ExecSeconds < d[NonSprinting].ExecSeconds*2) {
		t.Errorf("execution time ordering wrong")
	}
	if d[NoCSprinting].Speedup <= 1 || d[NonSprinting].Speedup != 1 {
		t.Errorf("speedups wrong: NoC %v, non %v", d[NoCSprinting].Speedup, d[NonSprinting].Speedup)
	}
	// NoC gating: only NoC-sprinting powers down routers.
	if d[NoCSprinting].NoCTilesOn != 4 {
		t.Errorf("NoC-sprinting powers %d routers, want 4", d[NoCSprinting].NoCTilesOn)
	}
	for _, scheme := range []Scheme{NonSprinting, FullSprinting, FineGrained} {
		if d[scheme].NoCTilesOn != 16 {
			t.Errorf("%v powers %d routers, want 16", scheme, d[scheme].NoCTilesOn)
		}
	}
	// Chip breakdown consistency.
	if math.Abs(d[NoCSprinting].Chip[power.CompCore]-d[NoCSprinting].CorePowerW) > 1e-9 {
		t.Error("CorePowerW disagrees with chip breakdown")
	}
}

func TestDecideRejectsBadInput(t *testing.T) {
	s := newSprinter(t)
	bad := workload.Profile{Name: "", Parallelism: 1, BaseSeconds: 1}
	if _, err := s.Decide(bad, NoCSprinting); err == nil {
		t.Error("invalid profile accepted")
	}
	dedup, _ := workload.ByName("dedup")
	if _, err := s.Decide(dedup, Scheme(42)); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestTilePowerMap(t *testing.T) {
	s := newSprinter(t)
	cp := s.Config().Chip
	tiles, err := s.TilePowerMap(4, NoCSprinting, false)
	if err != nil {
		t.Fatal(err)
	}
	activeTile := cp.CoreActiveW + cp.NoCTileW + cp.L2BankW
	darkTile := cp.CoreGatedW + cp.L2BankW
	nActive := 0
	for _, p := range tiles {
		switch {
		case math.Abs(p-activeTile) < 1e-9:
			nActive++
		case math.Abs(p-darkTile) < 1e-9:
		default:
			t.Fatalf("unexpected tile power %v", p)
		}
	}
	if nActive != 4 {
		t.Fatalf("%d active tiles, want 4", nActive)
	}
	// Without floorplan the active tiles are the clustered region
	// {0,1,4,5}; with floorplan they are spread.
	for _, id := range []int{0, 1, 4, 5} {
		if math.Abs(tiles[id]-activeTile) > 1e-9 {
			t.Errorf("tile %d should be active in identity placement", id)
		}
	}
	planned, err := s.TilePowerMap(4, NoCSprinting, true)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range tiles {
		if math.Abs(tiles[i]-planned[i]) > 1e-9 {
			same = false
		}
	}
	if same {
		t.Error("floorplanned power map identical to identity placement")
	}
	// Fine-grained keeps network on at dark tiles and idles cores: dark
	// tiles dissipate more than under NoC-sprinting.
	fine, err := s.TilePowerMap(4, FineGrained, false)
	if err != nil {
		t.Fatal(err)
	}
	if fine[15] <= tiles[15] {
		t.Error("fine-grained dark tile should dissipate more than gated tile")
	}
	if _, err := s.TilePowerMap(0, NoCSprinting, false); err == nil {
		t.Error("level 0 accepted")
	}
	if _, err := s.TilePowerMap(4, Scheme(42), false); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestHeatMapOrdering(t *testing.T) {
	s := newSprinter(t)
	full, err := s.HeatMap(16, FullSprinting, false)
	if err != nil {
		t.Fatal(err)
	}
	clustered, err := s.HeatMap(4, NoCSprinting, false)
	if err != nil {
		t.Fatal(err)
	}
	planned, err := s.HeatMap(4, NoCSprinting, true)
	if err != nil {
		t.Fatal(err)
	}
	pf, _, _ := full.Peak()
	pc, _, _ := clustered.Peak()
	pp, _, _ := planned.Peak()
	if !(pf > pc && pc > pp) {
		t.Errorf("peak ordering wrong: %v %v %v", pf, pc, pp)
	}
}

func TestEvaluateNetworkDedup(t *testing.T) {
	s := newSprinter(t)
	dedup, err := workload.ByName("dedup")
	if err != nil {
		t.Fatal(err)
	}
	full, err := s.EvaluateNetwork(dedup, FullSprinting, fastSim)
	if err != nil {
		t.Fatal(err)
	}
	nocs, err := s.EvaluateNetwork(dedup, NoCSprinting, fastSim)
	if err != nil {
		t.Fatal(err)
	}
	if full.Saturated || nocs.Saturated {
		t.Fatal("PARSEC-level loads should not saturate")
	}
	if nocs.AvgLatency >= full.AvgLatency {
		t.Errorf("NoC-sprinting latency %v not below full %v", nocs.AvgLatency, full.AvgLatency)
	}
	if nocs.NetPower.Total() >= full.NetPower.Total() {
		t.Errorf("NoC-sprinting power %v not below full %v", nocs.NetPower.Total(), full.NetPower.Total())
	}
	// Fine-grained: same traffic as NoC-sprinting but no router gating, so
	// it must burn more network power (mostly leakage of dark routers).
	fine, err := s.EvaluateNetwork(dedup, FineGrained, fastSim)
	if err != nil {
		t.Fatal(err)
	}
	if fine.NetPower.Total() <= nocs.NetPower.Total() {
		t.Error("fine-grained should burn more network power than NoC-sprinting")
	}
	// Non-sprinting: no traffic, but the un-gateable network still leaks
	// at all 16 routers (the Figure 3 observation).
	nominal, err := s.EvaluateNetwork(dedup, NonSprinting, fastSim)
	if err != nil {
		t.Fatal(err)
	}
	if nominal.Level != 1 || nominal.AvgLatency != 0 {
		t.Errorf("nominal network eval wrong: %+v", nominal)
	}
	if nominal.NetPower.TotalLeakage() <= nocs.NetPower.TotalLeakage() {
		t.Error("nominal (un-gated) network should leak more than a 4-router sprint region")
	}
}

func TestEvaluateNetworkLevelOne(t *testing.T) {
	s := newSprinter(t)
	// A synthetic profile whose optimum is one core: no traffic, but the
	// power state still differs between schemes.
	solo := workload.Profile{
		Name: "solo", Serial: 0.99, Parallelism: 1, Overhead: 0.1,
		Contention: 0.01, Comm: 0.001, InjRate: 0.01, BaseSeconds: 1,
	}
	nocs, err := s.EvaluateNetwork(solo, NoCSprinting, fastSim)
	if err != nil {
		t.Fatal(err)
	}
	fine, err := s.EvaluateNetwork(solo, FineGrained, fastSim)
	if err != nil {
		t.Fatal(err)
	}
	if nocs.Level != 1 || fine.Level != 1 {
		t.Fatalf("levels %d/%d, want 1", nocs.Level, fine.Level)
	}
	if nocs.NetPower.Total() >= fine.NetPower.Total() {
		t.Error("gated single-router network should burn less than full network")
	}
}

func TestSprintThermalDurationGain(t *testing.T) {
	s := newSprinter(t)
	dedup, err := workload.ByName("dedup")
	if err != nil {
		t.Fatal(err)
	}
	phFull, _, err := s.SprintThermal(dedup, FullSprinting)
	if err != nil {
		t.Fatal(err)
	}
	phNoC, dec, err := s.SprintThermal(dedup, NoCSprinting)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Level != 4 {
		t.Fatalf("dedup level %d", dec.Level)
	}
	if phFull.Sustainable || phNoC.Sustainable {
		t.Fatal("sprints should not be sustainable")
	}
	if phNoC.Total() <= phFull.Total() {
		t.Errorf("NoC-sprinting duration %v not longer than full %v", phNoC.Total(), phFull.Total())
	}
}

func TestActivationOrderAndRegionAccessors(t *testing.T) {
	s := newSprinter(t)
	order := s.ActivationOrder()
	if len(order) != 16 || order[0] != 0 {
		t.Fatalf("activation order wrong: %v", order)
	}
	r := s.Region(8)
	if r.Level() != 8 || !r.Active(0) {
		t.Error("region accessor wrong")
	}
	if plan, err := s.activePlan(); s.Mesh().Nodes() != 16 || plan == nil || err != nil {
		t.Error("accessors wrong")
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NoC.Width = 0
	if _, err := New(cfg); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestFloorplanOnFirstUse: New leaves the floorplan unbuilt, and concurrent
// first readers share the one plan Algorithm 4 gives for the activation
// order.
func TestFloorplanOnFirstUse(t *testing.T) {
	s := newSprinter(t)
	if s.plan != nil || s.planErr != nil {
		t.Fatal("New built the floorplan")
	}
	want, err := floorplan.Thermal(s.Mesh(), s.ActivationOrder())
	if err != nil {
		t.Fatal(err)
	}
	const readers = 16
	plans := make([]*floorplan.Plan, readers)
	var wg sync.WaitGroup
	for i := range plans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Half the readers reach the plan through HeatMap first.
			if i%2 == 0 {
				if _, err := s.HeatMap(4, NoCSprinting, true); err != nil {
					t.Error(err)
				}
			}
			plan, err := s.activePlan()
			if err != nil {
				t.Error(err)
			}
			plans[i] = plan
		}(i)
	}
	wg.Wait()
	for i, p := range plans {
		if p != plans[0] {
			t.Fatalf("reader %d got plan %p, reader 0 got %p", i, p, plans[0])
		}
	}
	if !reflect.DeepEqual(plans[0], want) {
		t.Errorf("shared plan %+v, Algorithm 4 gives %+v", *plans[0], *want)
	}
}

// TrafficHeatMap solves a steady-state heat map whose per-tile power comes
// from an actual cycle-accurate network run of workload p under scheme —
// closing the loop from simulated router activity to temperature, rather
// than assuming a constant NoC power per tile as the Figure 12 abstraction
// does. It is the oracle TestTrafficHeatMap holds that abstraction to. Each tile is TilePowerMap's, plus its own powered router's measured
// events through the DSENT-like model (gated routers add nothing). The
// DSENT-scale router numbers (mW) ride on the McPAT-scale tile baseline, so
// the map is dominated by core state — as in the paper — while hot routers
// add visible gradients.
func (s *Sprinter) TrafficHeatMap(p workload.Profile, scheme Scheme, useFloorplan bool, sp NetSimParams) (*thermal.HeatMap, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	level := s.Level(p, scheme)
	region := s.Region(level)
	f, err := s.schemeFabric(scheme, region)
	if err != nil {
		return nil, err
	}
	tiles, err := s.TilePowerMap(level, scheme, useFloorplan)
	if err != nil {
		return nil, err
	}
	if level >= 2 {
		// Every scheme, full-sprinting included, sends traffic only among
		// the region's nodes.
		net, err := s.build(sp, s.cfg.NoC, f, fmt.Sprintf("heatmap/%s/%s", p.Name, scheme))
		if err != nil {
			return nil, err
		}
		if _, err := sp.run(net, traffic.NewSet(region.ActiveNodes()), p.InjRate, sp.Seed); err != nil {
			return nil, err
		}
		slot, err := s.slots(useFloorplan)
		if err != nil {
			return nil, err
		}
		for id := 0; id < s.mesh.Nodes(); id++ {
			if !net.RouterActive(id) {
				continue
			}
			bd, err := s.cfg.Router.RouterPower(net.RouterEvents(id), net.Cycle(), s.cfg.Corner)
			if err != nil {
				return nil, err
			}
			tiles[slot(id)] += bd.Total()
		}
	}
	return thermal.SteadyState(s.cfg.Grid, tiles)
}

func TestTrafficHeatMap(t *testing.T) {
	s := newSprinter(t)
	dedup, err := workload.ByName("dedup")
	if err != nil {
		t.Fatal(err)
	}
	full, err := s.TrafficHeatMap(dedup, FullSprinting, false, fastSim)
	if err != nil {
		t.Fatal(err)
	}
	nocs, err := s.TrafficHeatMap(dedup, NoCSprinting, false, fastSim)
	if err != nil {
		t.Fatal(err)
	}
	planned, err := s.TrafficHeatMap(dedup, NoCSprinting, true, fastSim)
	if err != nil {
		t.Fatal(err)
	}
	pf, _, _ := full.Peak()
	pc, _, _ := nocs.Peak()
	pp, _, _ := planned.Peak()
	if !(pf > pc && pc > pp) {
		t.Errorf("traffic-driven peak ordering wrong: %.2f %.2f %.2f", pf, pc, pp)
	}
	// The traffic-driven map must stay close to the constant-power
	// abstraction (router activity is mW on a W-scale baseline).
	abstract, err := s.HeatMap(4, NoCSprinting, false)
	if err != nil {
		t.Fatal(err)
	}
	pa, _, _ := abstract.Peak()
	if math.Abs(pc-pa) > 2.0 {
		t.Errorf("traffic-driven peak %.2f far from abstraction %.2f", pc, pa)
	}
	// Unknown scheme rejected; invalid profile rejected.
	if _, err := s.TrafficHeatMap(dedup, NonSprinting, false, fastSim); err == nil {
		t.Error("non-sprinting traffic map accepted")
	}
	bad := dedup
	bad.Serial = 2
	if _, err := s.TrafficHeatMap(bad, NoCSprinting, false, fastSim); err == nil {
		t.Error("invalid profile accepted")
	}
}
