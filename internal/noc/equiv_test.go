// Zero-drift equivalence suite for the active-work stepper: every
// configuration class the simulator supports is run twice — once on the
// optimized (active-work) pipeline and once on the reference full-scan
// pipeline (UseReferenceStepper) — under identical traffic, and the results
// are required to be bit-identical: reflect.DeepEqual on Stats, per-router
// Events, packet timestamps, and the full human-readable state snapshot.
// The suite is external (package noc_test) on purpose: it exercises only
// the public API, like real drivers do.
package noc_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"nocsprint/internal/check"
	"nocsprint/internal/mesh"
	"nocsprint/internal/noc"
	"nocsprint/internal/routing"
	"nocsprint/internal/sprint"
	"nocsprint/internal/topo"
	"nocsprint/internal/traffic"
)

// equivCase is one equivalence configuration.
type equivCase struct {
	name    string
	fabric  string // "" = mesh, "torus" = width x height torus, "circulant" = C(n;s1,s2)
	width   int
	height  int
	n       int  // circulant nodes
	s1, s2  int  // circulant strides
	level   int  // sprint-region size; 0 = full mesh with DOR
	vcs     int  // VCs per port; 0 = the default 4
	classes int  // message classes (0/1 = single class)
	gating  bool // enable runtime traffic-driven power gating
	links   bool // override some link latencies (thermal floorplan wires)
	reconf  bool // shrink the region mid-run via Reconfigure
	cycles  int  // driven cycles (before any drain tail)
	rate    float64
}

var equivCases = []equivCase{
	{name: "full-4x4-dor", width: 4, height: 4, cycles: 3000, rate: 0.2},
	{name: "region-4x4-level4", width: 4, height: 4, level: 4, cycles: 3000, rate: 0.2},
	{name: "region-8x8-level6-dark", width: 8, height: 8, level: 6, cycles: 2500, rate: 0.15},
	{name: "classes-2", width: 4, height: 4, level: 4, classes: 2, cycles: 2500, rate: 0.2},
	{name: "link-latency-overrides", width: 4, height: 4, links: true, cycles: 2500, rate: 0.2},
	{name: "runtime-gating", width: 4, height: 4, level: 4, gating: true, cycles: 3000, rate: 0.1},
	{name: "reconfigure-midrun", width: 6, height: 6, level: 9, reconf: true, cycles: 2500, rate: 0.1},
	// Dateline VC classes, near saturation.
	{name: "torus-4x4", fabric: "torus", width: 4, height: 4, cycles: 2500, rate: 0.5},
	{name: "circulant-16", fabric: "circulant", n: 16, s1: 1, s2: 4, cycles: 2500, rate: 0.45},
	// 5 ports x 8 VCs: a 40-slot requester space.
	{name: "vcs-8-classes-2", width: 4, height: 4, vcs: 8, classes: 2, cycles: 2500, rate: 0.5},
	// Past saturation on 64 nodes, where most allocation attempts fail: the
	// first saturated rung of the 8x8 torus and of C(64;1,8) in the
	// topology study.
	{name: "torus-8x8-sat", fabric: "torus", width: 8, height: 8, cycles: 1000, rate: 0.4},
	{name: "circulant-64-sat", fabric: "circulant", n: 64, s1: 1, s2: 8, cycles: 3000, rate: 0.2},
}

// buildEquiv constructs one network for c plus the traffic endpoints and the
// sprint region (nil for full-mesh cases).
func buildEquiv(t testing.TB, c equivCase, reference bool) (*noc.Network, []int, *sprint.Region) {
	t.Helper()
	cfg := noc.DefaultConfig()
	cfg.Width, cfg.Height = c.width, c.height
	if c.vcs > 0 {
		cfg.VCs = c.vcs
	}
	if c.classes > 1 {
		cfg.Classes = c.classes
	}
	var (
		net    *noc.Network
		err    error
		region *sprint.Region
	)
	switch {
	case c.fabric == "torus":
		tp, terr := topo.NewTorus(c.width, c.height)
		if terr != nil {
			t.Fatal(terr)
		}
		net, err = noc.NewTopo(cfg, tp, routing.NewTorusDOR(tp), nil)
	case c.fabric == "circulant":
		tp, terr := topo.NewCirculant(c.n, c.s1, c.s2)
		if terr != nil {
			t.Fatal(terr)
		}
		alg, aerr := routing.NewRingCirculant(tp)
		if aerr != nil {
			t.Fatal(aerr)
		}
		net, err = noc.NewTopo(cfg, tp, alg, nil)
	case c.level > 0:
		region = sprint.NewRegion(mesh.New(c.width, c.height), 0, c.level, sprint.Euclidean)
		net, err = noc.New(cfg, routing.NewCDOR(region), region.ActiveNodes())
	default:
		net, err = noc.New(cfg, routing.NewDOR(mesh.New(c.width, c.height)), nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]int, net.Nodes())
	for i := range nodes {
		nodes[i] = i
	}
	if region != nil {
		nodes = region.ActiveNodes()
	}
	if c.links {
		// Slow down a few wires asymmetrically, as a thermal-aware
		// floorplan would.
		for _, l := range [][3]int{{0, 1, 3}, {1, 0, 2}, {5, 6, 4}} {
			if err := net.SetLinkLatency(l[0], l[1], l[2]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if c.gating {
		if err := net.EnableRuntimeGating(); err != nil {
			t.Fatal(err)
		}
	}
	net.SetProbe(equivChecker(net, region))
	net.UseReferenceStepper(reference)
	return net, nodes, region
}

// equivChecker builds the invariant checker every equivalence network
// carries. The oracle tracks the network's current algorithm through the
// mid-run Reconfigure (which swaps CDOR regions), so hops are always judged
// against the discipline in force when they were routed.
func equivChecker(net *noc.Network, region *sprint.Region) *check.Checker {
	return check.New(check.Config{
		Region: region,
		Oracle: func(cur, dst int) (int, error) { return net.Algorithm().NextPort(cur, dst) },
	})
}

// driveEquiv runs one network under c's deterministic traffic and returns
// every packet created, so timestamps can be compared flit-for-flit.
func driveEquiv(t *testing.T, net *noc.Network, c equivCase, nodes []int) []*noc.Packet {
	t.Helper()
	return driveEquivWith(t, net, c, nodes, net.Step)
}

// driveEquivWith is driveEquiv advancing the network with step, which must
// act as one Step, the drain included.
func driveEquivWith(t *testing.T, net *noc.Network, c equivCase, nodes []int, step func()) []*noc.Packet {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	set := traffic.NewSet(nodes)
	pattern := traffic.NewUniform(set.Size())
	pktProb := c.rate / float64(net.Config().PacketLength)
	var pkts []*noc.Packet
	net.SetMeasuring(true)
	for i := 0; i < c.cycles; i++ {
		if c.reconf && i == c.cycles/2 {
			// Shrink the region to its first four nodes mid-run; the two
			// modes must drop identical traffic and drain in the same
			// number of cycles.
			region := sprint.NewRegion(mesh.New(c.width, c.height), 0, 4, sprint.Euclidean)
			rep, err := net.Reconfigure(region.ActiveNodes(), routing.NewCDOR(region), 20000)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Changed {
				t.Fatal("reconfigure reported no change")
			}
			nodes = region.ActiveNodes()
			set = traffic.NewSet(nodes)
			pattern = traffic.NewUniform(set.Size())
		}
		for _, src := range nodes {
			if rng.Float64() < pktProb {
				dst := set.PickNode(pattern, src, rng)
				class := 0
				if c.classes > 1 {
					class = rng.Intn(c.classes)
				}
				if p, err := net.TryEnqueuePacket(src, dst, class, net.Config().PacketLength); err == nil {
					pkts = append(pkts, p)
				}
			}
		}
		step()
	}
	net.SetMeasuring(false)
	for i := 0; !net.Drained(); i++ {
		if i == 50000 {
			t.Fatalf("network did not drain within 50000 cycles (%d packets in flight)", net.InFlight())
		}
		step()
	}
	return pkts
}

// TestStepperEquivalence is the zero-drift proof: optimized and reference
// stepper runs must agree bit-for-bit on every observable.
func TestStepperEquivalence(t *testing.T) {
	for _, c := range equivCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			opt, optNodes, _ := buildEquiv(t, c, false)
			ref, refNodes, _ := buildEquiv(t, c, true)
			optPkts := driveEquiv(t, opt, c, optNodes)
			refPkts := driveEquiv(t, ref, c, refNodes)

			if os, rs := opt.Stats(), ref.Stats(); !reflect.DeepEqual(os, rs) {
				t.Errorf("stats drift:\noptimized: %+v\nreference: %+v", os, rs)
			}
			if opt.Cycle() != ref.Cycle() {
				t.Errorf("cycle drift: optimized %d, reference %d", opt.Cycle(), ref.Cycle())
			}
			for id := 0; id < opt.Nodes(); id++ {
				if oe, re := opt.RouterEvents(id), ref.RouterEvents(id); !reflect.DeepEqual(oe, re) {
					t.Errorf("router %d event drift:\noptimized: %+v\nreference: %+v", id, oe, re)
				}
			}
			oc, oerr := opt.Audit(nil)
			rc, rerr := ref.Audit(nil)
			if oerr != nil || rerr != nil {
				t.Errorf("audit failed: optimized %v, reference %v", oerr, rerr)
			}
			if !reflect.DeepEqual(oc, rc) {
				t.Errorf("flit census drift:\noptimized: %+v\nreference: %+v", oc, rc)
			}
			if len(optPkts) != len(refPkts) {
				t.Fatalf("packet count drift: optimized %d, reference %d", len(optPkts), len(refPkts))
			}
			for i := range optPkts {
				o, r := optPkts[i], refPkts[i]
				if o.ID != r.ID || o.Src != r.Src || o.Dst != r.Dst ||
					o.CreatedAt != r.CreatedAt || o.InjectedAt != r.InjectedAt || o.EjectedAt != r.EjectedAt {
					t.Errorf("packet %d timestamp drift:\noptimized: %+v\nreference: %+v", i, *o, *r)
				}
			}
			// The snapshot dumps every buffer, VC state, and credit counter:
			// equal strings mean equal microarchitectural state.
			if osn, rsn := opt.Snapshot(), ref.Snapshot(); osn != rsn {
				t.Errorf("state snapshot drift:\noptimized:\n%s\nreference:\n%s", osn, rsn)
			}
			if c.gating {
				if og, rg := opt.GatingStats(), ref.GatingStats(); !reflect.DeepEqual(og, rg) {
					t.Errorf("gating stats drift:\noptimized: %+v\nreference: %+v", og, rg)
				}
			}
		})
	}
}

// TestStepperEquivalenceToggleMidRun flips between the two steppers every
// few hundred cycles of a single run and checks the result against a pure
// reference run: the work-set bookkeeping must stay exact across toggles.
func TestStepperEquivalenceToggleMidRun(t *testing.T) {
	c := equivCases[1] // region-4x4-level4
	toggled, tNodes, _ := buildEquiv(t, c, false)
	ref, rNodes, _ := buildEquiv(t, c, true)

	set := traffic.NewSet(tNodes)
	pattern := traffic.NewUniform(set.Size())
	pktProb := c.rate / float64(toggled.Config().PacketLength)
	const seed = 23
	for _, run := range []struct {
		net    *noc.Network
		nodes  []int
		toggle bool
	}{{toggled, tNodes, true}, {ref, rNodes, false}} {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < c.cycles; i++ {
			if run.toggle && i%400 == 0 {
				run.net.UseReferenceStepper(i%800 == 0)
			}
			for _, src := range run.nodes {
				if r.Float64() < pktProb {
					run.net.Enqueue(src, set.PickNode(pattern, src, r))
				}
			}
			run.net.Step()
		}
	}
	if err := toggled.DrainWithBudgetCtx(nil, 50000); err != nil {
		t.Fatal(err)
	}
	if err := ref.DrainWithBudgetCtx(nil, 50000); err != nil {
		t.Fatal(err)
	}
	if ts, rs := toggled.Stats(), ref.Stats(); !reflect.DeepEqual(ts, rs) {
		t.Errorf("stats drift across stepper toggles:\ntoggled: %+v\nreference: %+v", ts, rs)
	}
	if tsn, rsn := toggled.Snapshot(), ref.Snapshot(); tsn != rsn {
		t.Errorf("snapshot drift across stepper toggles:\ntoggled:\n%s\nreference:\n%s", tsn, rsn)
	}
}

// TestActiveRoutersIncremental asserts the O(1) ActiveRouters counter agrees
// with a full scan through construction and every reconfiguration.
func TestActiveRoutersIncremental(t *testing.T) {
	scan := func(net *noc.Network) int {
		n := 0
		for id := 0; id < net.Nodes(); id++ {
			if net.RouterActive(id) {
				n++
			}
		}
		return n
	}
	m := mesh.New(6, 6)
	for _, level := range []int{1, 4, 9, 16} {
		region := sprint.NewRegion(m, 0, level, sprint.Euclidean)
		net, err := noc.New(noc.Config{Width: 6, Height: 6, VCs: 4, BufferDepth: 4,
			PacketLength: 5, FlitBits: 128, LinkLatency: 1}, routing.NewCDOR(region), region.ActiveNodes())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := net.ActiveRouters(), scan(net); got != want {
			t.Fatalf("level %d: ActiveRouters()=%d, scan=%d", level, got, want)
		}
		for _, next := range []int{16, 2, 9} {
			r2 := sprint.NewRegion(m, 0, next, sprint.Euclidean)
			if _, err := net.Reconfigure(r2.ActiveNodes(), routing.NewCDOR(r2), 10000); err != nil {
				t.Fatal(err)
			}
			if got, want := net.ActiveRouters(), scan(net); got != want {
				t.Fatalf("level %d -> %d: ActiveRouters()=%d, scan=%d", level, next, got, want)
			}
		}
	}
}

// stepAllocs returns the objects allocated by window consecutive Steps,
// counted together. AllocsPerRun divides its malloc count by the run count
// in integers, so counting one Step per run would read anything that
// allocates less than once per cycle, such as a sweep every 16 cycles, as 0.
func stepAllocs(net *noc.Network, window int) float64 {
	return testing.AllocsPerRun(1, func() {
		for k := 0; k < window; k++ {
			net.Step()
		}
	})
}

// TestStepZeroAllocSteadyState pins the allocation count of a steady-state
// Step to zero: once buffers have grown to their high-water marks, 200
// cycles of the network allocate nothing, for both dark-dominated and
// loaded meshes.
func TestStepZeroAllocSteadyState(t *testing.T) {
	for _, c := range []equivCase{
		{name: "dark-8x8", width: 8, height: 8, level: 4, rate: 0.15},
		{name: "full-4x4", width: 4, height: 4, rate: 0.2},
		{name: "torus-4x4", fabric: "torus", width: 4, height: 4, rate: 0.5},
		{name: "circulant-16", fabric: "circulant", n: 16, s1: 1, s2: 4, rate: 0.45},
		{name: "circulant-64", fabric: "circulant", n: 64, s1: 1, s2: 8, rate: 0.2},
		{name: "vcs-8-4x4", width: 4, height: 4, vcs: 8, rate: 0.5},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			net, nodes, _ := buildEquiv(t, c, false)
			net.SetProbe() // the bare stepper; TestStepZeroAllocSteadyStateWithObs attaches probes
			rng := rand.New(rand.NewSource(3))
			set := traffic.NewSet(nodes)
			pattern := traffic.NewUniform(set.Size())
			pktProb := c.rate / float64(net.Config().PacketLength)
			tick := func() {
				for _, src := range nodes {
					if rng.Float64() < pktProb {
						net.Enqueue(src, set.PickNode(pattern, src, rng))
					}
				}
				net.Step()
			}
			for i := 0; i < 2000; i++ { // grow event buffers to steady state
				tick()
			}
			// Measure Step alone: packet creation (caller-side) allocates by
			// design, so keep traffic flowing but measure only the stepper.
			if allocs := stepAllocs(net, 200); allocs != 0 {
				t.Errorf("200 steady-state Steps allocate %.0f objects, want 0", allocs)
			}
		})
	}
}

// TestRunCtxCancellation checks RunUntil's per-step context poll: a context
// cancelled before the run stops it before the first step with a wrapped ctx
// error, and a run resumed on a cancelled context steps nothing.
func TestRunCtxCancellation(t *testing.T) {
	m := mesh.New(4, 4)
	build := func() *noc.Network {
		net, err := noc.New(noc.DefaultConfig(), routing.NewDOR(m), nil)
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	run := func(net *noc.Network, ctx context.Context, cycles int) error {
		_, err := net.RunUntil(ctx, cycles, nil, nil)
		return err
	}

	// Nil context: never cancels.
	net := build()
	if err := run(net, nil, 1000); err != nil {
		t.Fatalf("nil ctx: %v", err)
	}
	if net.Cycle() != 1000 {
		t.Fatalf("nil ctx ran %d cycles, want 1000", net.Cycle())
	}

	// Pre-cancelled: stops at the first poll, zero cycles stepped.
	net = build()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := run(net, ctx, 1000)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled ctx: err=%v, want context.Canceled", err)
	}
	if net.Cycle() != 0 {
		t.Fatalf("pre-cancelled ctx stepped %d cycles, want 0", net.Cycle())
	}

	// Cancelled between runs: a second run on an already-cancelled context
	// stops at its first poll without stepping.
	net = build()
	ctx2, cancel2 := context.WithCancel(context.Background())
	if err := run(net, ctx2, 300); err != nil {
		t.Fatal(err)
	}
	cancel2()
	err = run(net, ctx2, 10000)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel: err=%v, want context.Canceled", err)
	}
	if net.Cycle() != 300 {
		t.Fatalf("cancelled resume stepped to cycle %d, want 300 (stop at first poll)", net.Cycle())
	}

	// A live context runs the whole budget.
	net = build()
	if err := run(net, context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	if net.Cycle() != 100 {
		t.Fatalf("ran %d cycles, want 100", net.Cycle())
	}
}

// progressProbe fails its test at the end of any cycle where
// Network.Progress differs from the Stats sum it stands for.
type progressProbe struct{ t *testing.T }

func (progressProbe) FlitArrived(*noc.Network, int, int, *noc.Packet, noc.FlitType, int) {}
func (progressProbe) FlitInjected(*noc.Network, int, *noc.Packet, int)                   {}
func (progressProbe) FlitEjected(*noc.Network, int, *noc.Packet, bool, bool)             {}
func (progressProbe) CreditDelivered(*noc.Network, int, int, int, int)                   {}

func (p progressProbe) CycleEnd(n *noc.Network, cycle int64) {
	s := n.Stats()
	if want := s.FlitsInjected + s.FlitsEjected + s.Events.BufferReads + s.Events.BufferWrites; n.Progress() != want {
		p.t.Fatalf("cycle %d: Progress %d, Stats sum %d", cycle, n.Progress(), want)
	}
}

// TestProgressMatchesStats checks the watchdog's O(1) progress count against
// the per-router Stats sum on every cycle of every equivalence case, on both
// steppers.
func TestProgressMatchesStats(t *testing.T) {
	for _, c := range equivCases {
		for _, reference := range []bool{false, true} {
			net, nodes, region := buildEquiv(t, c, reference)
			net.SetProbe(equivChecker(net, region), progressProbe{t})
			driveEquiv(t, net, c, nodes)
			if net.Progress() == 0 {
				t.Fatalf("%s: no flit moved", c.name)
			}
		}
	}
}
