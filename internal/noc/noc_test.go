package noc

import (
	"math"
	"math/rand"
	"testing"

	"nocsprint/internal/routing"
	"nocsprint/internal/sprint"
	"nocsprint/internal/topo"
	"nocsprint/internal/traffic"
)

func fullNet(t *testing.T, cfg Config) *Network {
	t.Helper()
	m := topo.NewMesh(cfg.Width, cfg.Height)
	net, err := New(cfg, routing.NewDOR(m), nil)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// runUntilDrained steps the network until no packets are in flight — a thin
// t.Fatal wrapper over the exported bounded-drain primitive the
// reconfiguration path uses.
func runUntilDrained(t *testing.T, net *Network, limit int) {
	t.Helper()
	if err := net.DrainWithBudgetCtx(nil, limit); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []func(*Config){
		func(c *Config) { c.Width = 0 },
		func(c *Config) { c.Height = -1 },
		func(c *Config) { c.VCs = 0 },
		func(c *Config) { c.BufferDepth = 0 },
		func(c *Config) { c.PacketLength = 0 },
		func(c *Config) { c.FlitBits = 0 },
		func(c *Config) { c.LinkLatency = 0 },
	}
	for i, mut := range bads {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestSinglePacketZeroLoadLatency(t *testing.T) {
	cfg := DefaultConfig()
	for _, tc := range []struct{ src, dst int }{{0, 1}, {0, 3}, {0, 15}, {5, 5}, {12, 3}} {
		net := fullNet(t, cfg)
		net.SetMeasuring(true)
		p := net.Enqueue(tc.src, tc.dst)
		runUntilDrained(t, net, 500)
		hops := topo.NewMesh(cfg.Width, cfg.Height).HammingID(tc.src, tc.dst)
		want := ZeroLoadLatency(cfg, hops)
		got := float64(p.EjectedAt - p.CreatedAt)
		if got != want {
			t.Errorf("%d->%d (%d hops): latency %v, want %v", tc.src, tc.dst, hops, got, want)
		}
	}
}

func TestLatencyMonotoneInHops(t *testing.T) {
	cfg := DefaultConfig()
	prev := -1.0
	for _, dst := range []int{0, 1, 2, 3, 7, 11, 15} {
		net := fullNet(t, cfg)
		p := net.Enqueue(0, dst)
		runUntilDrained(t, net, 500)
		lat := float64(p.EjectedAt - p.CreatedAt)
		if lat <= prev {
			t.Errorf("latency to %d (%v) not greater than previous (%v)", dst, lat, prev)
		}
		prev = lat
	}
}

func TestFlitAndPacketConservation(t *testing.T) {
	cfg := DefaultConfig()
	net := fullNet(t, cfg)
	rng := rand.New(rand.NewSource(11))
	const packets = 400
	for i := 0; i < packets; i++ {
		src := rng.Intn(16)
		dst := rng.Intn(16)
		net.Enqueue(src, dst)
		net.Step()
	}
	runUntilDrained(t, net, 20000)
	s := net.Stats()
	if s.PacketsCreated != packets || s.PacketsEjected != packets {
		t.Fatalf("packet conservation: created %d ejected %d", s.PacketsCreated, s.PacketsEjected)
	}
	wantFlits := int64(packets * cfg.PacketLength)
	if s.FlitsInjected != wantFlits || s.FlitsEjected != wantFlits {
		t.Fatalf("flit conservation: injected %d ejected %d want %d", s.FlitsInjected, s.FlitsEjected, wantFlits)
	}
	// Buffer writes happen at every router along each path plus injection.
	if s.Events.BufferWrites < wantFlits {
		t.Error("implausibly few buffer writes")
	}
	if s.Events.BufferReads != s.Events.XbarTraversals {
		t.Error("every buffer read should traverse the crossbar")
	}
}

func TestInOrderDeliveryPerPair(t *testing.T) {
	cfg := DefaultConfig()
	net := fullNet(t, cfg)
	var pkts []*Packet
	for i := 0; i < 50; i++ {
		pkts = append(pkts, net.Enqueue(0, 15))
		net.Step()
	}
	runUntilDrained(t, net, 20000)
	// Wormhole + deterministic routing on one pair: ejection order must
	// match creation order.
	for i := 1; i < len(pkts); i++ {
		if pkts[i].EjectedAt <= pkts[i-1].EjectedAt {
			t.Fatalf("packets %d/%d ejected out of order (%d <= %d)",
				i-1, i, pkts[i].EjectedAt, pkts[i-1].EjectedAt)
		}
	}
}

func TestLatencyRisesWithLoad(t *testing.T) {
	cfg := DefaultConfig()
	m := topo.NewMesh(4, 4)
	set := traffic.NewSet(topo.AllNodes(16))
	pattern := traffic.NewUniform(16)
	var lats []float64
	for _, rate := range []float64{0.02, 0.15, 0.30} {
		net, err := New(cfg, routing.NewDOR(m), nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunSynthetic(net, set, pattern, SimParams{
			InjectionRate: rate, WarmupCycles: 1000, MeasureCycles: 3000, DrainCycles: 30000, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.MeasuredPackets == 0 {
			t.Fatalf("rate %v measured nothing", rate)
		}
		lats = append(lats, res.AvgLatency)
	}
	if !(lats[0] < lats[1] && lats[1] < lats[2]) {
		t.Errorf("latency not increasing with load: %v", lats)
	}
	// Low-load average should be near the analytic zero-load mean for
	// uniform traffic on a 4x4 mesh (avg hops = 2.5).
	zl := ZeroLoadLatency(cfg, 2) // between 2 and 3 hops
	if lats[0] < zl*0.8 || lats[0] > zl*1.8 {
		t.Errorf("low-load latency %v implausible vs zero-load %v", lats[0], zl)
	}
}

func TestThroughputTracksOfferedLoadBelowSaturation(t *testing.T) {
	cfg := DefaultConfig()
	m := topo.NewMesh(4, 4)
	for _, rate := range []float64{0.05, 0.2} {
		net, err := New(cfg, routing.NewDOR(m), nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunSynthetic(net, traffic.NewSet(topo.AllNodes(16)), traffic.NewUniform(16), SimParams{
			InjectionRate: rate, WarmupCycles: 1000, MeasureCycles: 4000, DrainCycles: 40000, Seed: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Saturated {
			t.Fatalf("rate %v unexpectedly saturated", rate)
		}
		if res.ThroughputFlits < rate*0.85 || res.ThroughputFlits > rate*1.15 {
			t.Errorf("rate %v: accepted %v, want ~offered", rate, res.ThroughputFlits)
		}
	}
}

func TestSaturationDetected(t *testing.T) {
	cfg := DefaultConfig()
	m := topo.NewMesh(4, 4)
	net, err := New(cfg, routing.NewDOR(m), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSynthetic(net, traffic.NewSet(topo.AllNodes(16)), traffic.NewUniform(16), SimParams{
		InjectionRate: 0.95, WarmupCycles: 500, MeasureCycles: 2000, DrainCycles: 3000, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated {
		t.Error("0.95 flits/cycle/node should saturate a 4x4 mesh")
	}
}

func TestSprintRegionGatedRoutersStayCold(t *testing.T) {
	cfg := DefaultConfig()
	m := topo.NewMesh(4, 4)
	region := sprint.NewRegion(m, 0, 4, sprint.Euclidean)
	net, err := New(cfg, routing.NewCDOR(region), region.ActiveNodes())
	if err != nil {
		t.Fatal(err)
	}
	set := traffic.NewSet(region.ActiveNodes())
	res, err := RunSynthetic(net, set, traffic.NewUniform(4), SimParams{
		InjectionRate: 0.2, WarmupCycles: 1000, MeasureCycles: 3000, DrainCycles: 20000, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated || res.MeasuredPackets == 0 {
		t.Fatal("sprint region run failed to complete")
	}
	if net.ActiveRouters() != 4 {
		t.Errorf("active routers = %d, want 4", net.ActiveRouters())
	}
	for id := 0; id < m.Nodes(); id++ {
		if ev := net.RouterEvents(id); !region.Active(id) && ev != (Events{}) {
			t.Errorf("dark router %d saw events %+v", id, ev)
		}
	}
}

func TestSprintRegionAllLevelsDeliver(t *testing.T) {
	cfg := DefaultConfig()
	m := topo.NewMesh(4, 4)
	for level := 2; level <= 16; level++ {
		region := sprint.NewRegion(m, 0, level, sprint.Euclidean)
		net, err := New(cfg, routing.NewCDOR(region), region.ActiveNodes())
		if err != nil {
			t.Fatal(err)
		}
		set := traffic.NewSet(region.ActiveNodes())
		res, err := RunSynthetic(net, set, traffic.NewUniform(level), SimParams{
			InjectionRate: 0.05, WarmupCycles: 300, MeasureCycles: 1000, DrainCycles: 10000, Seed: int64(level),
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Saturated {
			t.Errorf("level %d saturated at 0.05 flits/cycle", level)
		}
		if res.MeasuredPackets == 0 {
			t.Errorf("level %d measured nothing", level)
		}
	}
}

func TestEnqueuePanicsAtGatedNode(t *testing.T) {
	cfg := DefaultConfig()
	m := topo.NewMesh(4, 4)
	region := sprint.NewRegion(m, 0, 4, sprint.Euclidean)
	net, err := New(cfg, routing.NewCDOR(region), region.ActiveNodes())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("enqueue at gated node did not panic")
		}
	}()
	net.Enqueue(15, 0)
}

func TestNewRejectsBadConfigAndNodes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.VCs = 0
	m := topo.NewMesh(4, 4)
	if _, err := New(cfg, routing.NewDOR(m), nil); err == nil {
		t.Error("bad config accepted")
	}
	cfg = DefaultConfig()
	if _, err := New(cfg, routing.NewDOR(m), []int{99}); err == nil {
		t.Error("out-of-range active node accepted")
	}
}

func TestSelfTrafficDelivered(t *testing.T) {
	cfg := DefaultConfig()
	net := fullNet(t, cfg)
	p := net.Enqueue(5, 5)
	runUntilDrained(t, net, 200)
	if p.EjectedAt < 0 {
		t.Fatal("self packet not delivered")
	}
}

func TestRunSyntheticParamValidation(t *testing.T) {
	cfg := DefaultConfig()
	net := fullNet(t, cfg)
	set := traffic.NewSet(topo.AllNodes(16))
	if _, err := RunSynthetic(net, set, traffic.NewUniform(16), SimParams{InjectionRate: -1}); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := RunSynthetic(net, set, traffic.NewUniform(16), SimParams{InjectionRate: 99}); err == nil {
		t.Error("over-unity packet rate accepted")
	}
	if _, err := RunSynthetic(net, set, traffic.NewUniform(16), SimParams{InjectionRate: math.NaN()}); err == nil {
		t.Error("NaN rate accepted")
	}
	if _, err := RunSynthetic(net, set, traffic.NewUniform(4), SimParams{InjectionRate: 0.1}); err == nil {
		t.Error("pattern/set size mismatch accepted")
	}
	for _, p := range []SimParams{
		{InjectionRate: 0.1, WarmupCycles: -5},
		{InjectionRate: 0.1, MeasureCycles: -10},
		{InjectionRate: 0.1, DrainCycles: -1},
	} {
		if _, err := RunSynthetic(net, set, traffic.NewUniform(16), p); err == nil {
			t.Errorf("negative window accepted: %+v", p)
		}
	}
	if net.Cycle() != 0 {
		t.Errorf("rejected runs stepped the network to cycle %d", net.Cycle())
	}
}

// TestBacklogGrewBoundary pins the growth test's threshold: a backlog that
// rises by exactly 0.02·MeasuredCreated + 12 packets over the window is not
// saturation, one packet more is.
func TestBacklogGrewBoundary(t *testing.T) {
	pre := Stats{PacketsCreated: 40, PacketsInjected: 30, MeasuredCreated: 7}
	for _, c := range []struct {
		growth int64
		want   bool
	}{{12, false}, {13, false}, {14, true}} {
		// 50 measured packets put the threshold at 13 packets.
		mid := Stats{
			PacketsCreated:  pre.PacketsCreated + 50,
			PacketsInjected: pre.PacketsInjected + 50 - c.growth,
			MeasuredCreated: pre.MeasuredCreated + 50,
		}
		if got := backlogGrew(pre, mid); got != c.want {
			t.Errorf("growth %d over 50 measured packets: backlogGrew = %t, want %t", c.growth, got, c.want)
		}
	}
}

// TestStopWhenSaturated checks the early return: a run whose backlog growth
// marks it saturated ends with the measurement window, and every other run
// is the run without the field.
func TestStopWhenSaturated(t *testing.T) {
	cfg := DefaultConfig()
	set := traffic.NewSet(topo.AllNodes(16))
	run := func(rate float64, drain int, stop bool) Result {
		t.Helper()
		res, err := RunSynthetic(fullNet(t, cfg), set, traffic.NewUniform(16), SimParams{
			InjectionRate: rate, WarmupCycles: 200, MeasureCycles: 600, DrainCycles: drain,
			Seed: 7, StopWhenSaturated: stop,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// Far past saturation, the backlog grows over the window.
	full, stopped := run(0.8, 5000, false), run(0.8, 5000, true)
	if !full.Saturated {
		t.Fatalf("rate 0.8 run not saturated: %+v", full)
	}
	want := Result{Saturated: true, Cycles: 800}
	if stopped != want {
		t.Errorf("stopped run = %+v, want %+v", stopped, want)
	}

	// Under saturation the field changes nothing, also when a short drain
	// budget alone makes the verdict.
	for _, c := range []struct {
		name      string
		drain     int
		saturated bool
	}{{"drained", 5000, false}, {"drain budget short", 5, true}} {
		full, stopped := run(0.3, c.drain, false), run(0.3, c.drain, true)
		if full.Saturated != c.saturated || full.MeasuredPackets == 0 {
			t.Fatalf("%s: rate 0.3 run has Saturated %t and %d packets, want %t and some",
				c.name, full.Saturated, full.MeasuredPackets, c.saturated)
		}
		if stopped != full {
			t.Errorf("%s: run with StopWhenSaturated\n%+v\ndiffers from the run without\n%+v", c.name, stopped, full)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	cfg := DefaultConfig()
	m := topo.NewMesh(4, 4)
	run := func() Result {
		net, err := New(cfg, routing.NewDOR(m), nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunSynthetic(net, traffic.NewSet(topo.AllNodes(16)), traffic.NewUniform(16), SimParams{
			InjectionRate: 0.2, WarmupCycles: 500, MeasureCycles: 2000, DrainCycles: 20000, Seed: 99,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.AvgLatency != b.AvgLatency || a.Events != b.Events || a.MeasuredPackets != b.MeasuredPackets {
		t.Error("same-seed runs differ")
	}
}

func TestFlitTypeHelpers(t *testing.T) {
	if !Head.IsHead() || Head.IsTail() || !HeadTail.IsHead() || !HeadTail.IsTail() {
		t.Error("flit type predicates wrong")
	}
	if !Tail.IsTail() || Body.IsHead() || Body.IsTail() {
		t.Error("flit type predicates wrong")
	}
	if Head.String() != "head" || FlitType(9).String() == "" {
		t.Error("flit type names wrong")
	}
}

func TestSetLinkLatencyValidation(t *testing.T) {
	cfg := DefaultConfig()
	net := fullNet(t, cfg)
	if err := net.SetLinkLatency(0, 5, 2); err == nil {
		t.Error("non-adjacent link accepted")
	}
	if err := net.SetLinkLatency(0, 1, 0); err == nil {
		t.Error("zero latency accepted")
	}
	if err := net.SetLinkLatency(-1, 1, 2); err == nil {
		t.Error("out-of-range router accepted")
	}
	if err := net.SetLinkLatency(0, 1, 3); err != nil {
		t.Fatal(err)
	}
	net.Step()
	if err := net.SetLinkLatency(1, 2, 3); err == nil {
		t.Error("mid-simulation latency change accepted")
	}
}

// TestPerLinkLatencySlowsPath pins the latency arithmetic: stretching one
// link on a packet's path by k cycles delays the tail by exactly k.
func TestPerLinkLatencySlowsPath(t *testing.T) {
	cfg := DefaultConfig()
	base := fullNet(t, cfg)
	p0 := base.Enqueue(0, 3)
	runUntilDrained(t, base, 500)

	slow := fullNet(t, cfg)
	const extra = 4
	if err := slow.SetLinkLatency(1, 2, cfg.LinkLatency+extra); err != nil {
		t.Fatal(err)
	}
	p1 := slow.Enqueue(0, 3)
	runUntilDrained(t, slow, 500)

	// The head pays exactly +extra; the tail can pay slightly more because
	// the longer credit round trip on the stretched link exceeds the
	// 4-flit buffer depth (credit-limited link throughput — physically
	// correct for long wires without deeper buffers).
	lat0 := p0.EjectedAt - p0.CreatedAt
	got := p1.EjectedAt - p1.CreatedAt
	if got < lat0+extra {
		t.Errorf("slow-link latency %d below head penalty %d", got, lat0+extra)
	}
	if got > lat0+extra+int64(cfg.PacketLength) {
		t.Errorf("slow-link latency %d exceeds credit-limited bound %d", got, lat0+extra+int64(cfg.PacketLength))
	}
	// A path avoiding the slow link is unaffected.
	other := fullNet(t, cfg)
	if err := other.SetLinkLatency(1, 2, cfg.LinkLatency+extra); err != nil {
		t.Fatal(err)
	}
	p2 := other.Enqueue(4, 12)
	runUntilDrained(t, other, 500)
	pRef := fullNet(t, cfg)
	p3 := pRef.Enqueue(4, 12)
	runUntilDrained(t, pRef, 500)
	if p2.EjectedAt-p2.CreatedAt != p3.EjectedAt-p3.CreatedAt {
		t.Error("unrelated path affected by link latency override")
	}
}

func TestClassesConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Classes = 3 // does not divide 4 VCs
	if err := cfg.Validate(); err == nil {
		t.Error("indivisible class count accepted")
	}
	cfg.Classes = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative class count accepted")
	}
	cfg.Classes = 2
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEnqueueClassValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Classes = 2
	m := topo.NewMesh(4, 4)
	net, err := New(cfg, routing.NewDOR(m), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range class accepted")
		}
	}()
	net.EnqueuePacket(0, 1, 2, cfg.PacketLength)
}

// TestClassesDeliverAndConserve runs mixed-class traffic and checks
// conservation and in-order delivery per (pair, class).
func TestClassesDeliverAndConserve(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Classes = 2
	m := topo.NewMesh(4, 4)
	net, err := New(cfg, routing.NewDOR(m), nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	var class0, class1 []*Packet
	for i := 0; i < 300; i++ {
		src, dst := rng.Intn(16), rng.Intn(16)
		if i%2 == 0 {
			class0 = append(class0, net.EnqueuePacket(src, dst, 0, cfg.PacketLength))
		} else {
			class1 = append(class1, net.EnqueuePacket(src, dst, 1, cfg.PacketLength))
		}
		net.Step()
	}
	runUntilDrained(t, net, 30000)
	s := net.Stats()
	if s.PacketsCreated != 300 || s.PacketsEjected != 300 {
		t.Fatalf("conservation: %d created, %d ejected", s.PacketsCreated, s.PacketsEjected)
	}
	for _, pkts := range [][]*Packet{class0, class1} {
		for _, p := range pkts {
			if p.EjectedAt < 0 {
				t.Fatal("packet lost")
			}
		}
	}
}

// TestClassIsolation pins the point of message classes: a class saturated
// by hot traffic cannot inflate the latency of a sparse class sharing the
// same links, whereas without classes the sparse traffic suffers
// head-of-line blocking behind the hot flows.
func TestClassIsolation(t *testing.T) {
	m := topo.NewMesh(4, 4)
	// Hot flow 0->3 at full rate; probe packets 0->3 occasionally.
	run := func(classes int) float64 {
		cfg := DefaultConfig()
		cfg.Classes = classes
		net, err := New(cfg, routing.NewDOR(m), nil)
		if err != nil {
			t.Fatal(err)
		}
		probeClass := 0
		if classes == 2 {
			probeClass = 1
		}
		var probes []*Packet
		for cyc := 0; cyc < 4000; cyc++ {
			// Saturating hot traffic in class 0 from two sources sharing
			// the row toward node 3.
			if cyc%2 == 0 {
				net.EnqueuePacket(0, 3, 0, cfg.PacketLength)
			}
			if cyc%2 == 1 {
				net.EnqueuePacket(1, 3, 0, cfg.PacketLength)
			}
			if cyc%400 == 0 {
				probes = append(probes, net.EnqueuePacket(2, 3, probeClass, cfg.PacketLength))
			}
			net.Step()
		}
		var sum float64
		var done int
		for _, p := range probes {
			if p.EjectedAt >= 0 {
				sum += float64(p.EjectedAt - p.CreatedAt)
				done++
			}
		}
		if done == 0 {
			t.Fatal("no probes completed")
		}
		return sum / float64(done)
	}
	shared := run(1)
	isolated := run(2)
	if isolated >= shared {
		t.Errorf("class isolation did not help: isolated %v vs shared %v", isolated, shared)
	}
}

// TestInvariantsUnderRandomTraffic steps the network under random traffic,
// checking credit conservation and buffer bounds every cycle.
func TestInvariantsUnderRandomTraffic(t *testing.T) {
	for _, setup := range []struct {
		name    string
		classes int
		level   int // 0 = full mesh
		gating  bool
	}{
		{"full-mesh", 1, 0, false},
		{"two-classes", 2, 0, false},
		{"sprint-region", 1, 6, false},
		{"runtime-gating", 1, 0, true},
	} {
		t.Run(setup.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Classes = setup.classes
			m := topo.NewMesh(4, 4)
			var net *Network
			var err error
			var endpoints []int
			if setup.level > 0 {
				region := sprint.NewRegion(m, 0, setup.level, sprint.Euclidean)
				net, err = New(cfg, routing.NewCDOR(region), region.ActiveNodes())
				endpoints = region.ActiveNodes()
			} else {
				net, err = New(cfg, routing.NewDOR(m), nil)
				endpoints = topo.AllNodes(16)
			}
			if err != nil {
				t.Fatal(err)
			}
			if setup.gating {
				if err := net.EnableRuntimeGating(); err != nil {
					t.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(77))
			for cyc := 0; cyc < 2500; cyc++ {
				if rng.Float64() < 0.5 {
					src := endpoints[rng.Intn(len(endpoints))]
					dst := endpoints[rng.Intn(len(endpoints))]
					net.EnqueuePacket(src, dst, rng.Intn(cfg.classes()), cfg.PacketLength)
				}
				net.Step()
				if _, err := net.Audit(nil); err != nil {
					t.Fatalf("cycle %d: %v", cyc, err)
				}
			}
		})
	}
}

func sprintRegion(t *testing.T, m *topo.Mesh, level int) *sprint.Region {
	t.Helper()
	return sprint.NewRegion(m, 0, level, sprint.Euclidean)
}
