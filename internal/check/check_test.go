package check_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"nocsprint/internal/check"
	"nocsprint/internal/noc"
	"nocsprint/internal/routing"
	"nocsprint/internal/sprint"
	"nocsprint/internal/topo"
	"nocsprint/internal/traffic"
)

// failOn returns a checker config whose handler fails the test immediately,
// so any violation in a clean run is reported with its snapshot.
func failOn(t *testing.T, cfg check.Config) check.Config {
	t.Helper()
	cfg.OnViolation = func(v *check.Violation) {
		t.Fatalf("unexpected %s violation: %s\n%s", v.Kind, v.Detail, v.Snapshot)
	}
	return cfg
}

func runSynthetic(t *testing.T, net *noc.Network, nodes []int, rate float64) noc.Result {
	t.Helper()
	set := traffic.NewSet(nodes)
	res, err := noc.RunSynthetic(net, set, traffic.NewUniform(set.Size()), noc.SimParams{
		InjectionRate: rate,
		WarmupCycles:  300,
		MeasureCycles: 800,
		DrainCycles:   8000,
		Seed:          7,
	})
	if err != nil {
		t.Fatalf("RunSynthetic: %v", err)
	}
	return res
}

// TestCleanRunCDOR drives a gated CDOR network under load with every check
// enabled at the tightest interval: a correct simulator must produce zero
// violations.
func TestCleanRunCDOR(t *testing.T) {
	m := topo.NewMesh(4, 4)
	region := sprint.NewRegion(m, 0, 8, sprint.Euclidean)
	alg := routing.NewCDOR(region)
	net, err := noc.New(noc.DefaultConfig(), alg, region.ActiveNodes())
	if err != nil {
		t.Fatal(err)
	}
	net.SetProbe(check.New(failOn(t, check.Config{Region: region, Oracle: alg.NextPort, Interval: 1})))
	res := runSynthetic(t, net, region.ActiveNodes(), 0.2)
	if res.MeasuredPackets == 0 {
		t.Fatal("no packets measured — the run exercised nothing")
	}
}

// TestCleanRunDOR covers the full-mesh DOR discipline (the full-sprinting
// baseline) plus runtime power gating, whose wake-up stalls must not trip
// the watchdog.
func TestCleanRunDOR(t *testing.T) {
	m := topo.NewMesh(4, 4)
	alg := routing.NewDOR(m)
	net, err := noc.New(noc.DefaultConfig(), alg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.EnableRuntimeGating(); err != nil {
		t.Fatal(err)
	}
	net.SetProbe(check.New(failOn(t, check.Config{Oracle: alg.NextPort, Interval: 1})))
	nodes := make([]int, m.Nodes())
	for i := range nodes {
		nodes[i] = i
	}
	res := runSynthetic(t, net, nodes, 0.1)
	if res.MeasuredPackets == 0 {
		t.Fatal("no packets measured — the run exercised nothing")
	}
}

// TestCheckerZeroDrift proves the checker is purely observational: the same
// seeded run with and without a checker attached yields identical results.
func TestCheckerZeroDrift(t *testing.T) {
	m := topo.NewMesh(4, 4)
	run := func(attach bool) noc.Result {
		region := sprint.NewRegion(m, 0, 8, sprint.Euclidean)
		alg := routing.NewCDOR(region)
		net, err := noc.New(noc.DefaultConfig(), alg, region.ActiveNodes())
		if err != nil {
			t.Fatal(err)
		}
		if attach {
			net.SetProbe(check.New(failOn(t, check.Config{Region: region, Oracle: alg.NextPort, Interval: 1})))
		}
		return runSynthetic(t, net, region.ActiveNodes(), 0.25)
	}
	plain, checked := run(false), run(true)
	if !reflect.DeepEqual(plain, checked) {
		t.Fatalf("checker perturbed results:\nwithout: %+v\nwith:    %+v", plain, checked)
	}
}

// misroute wraps a routing algorithm and forces one wrong turn at a chosen
// router, to inject violations deliberately. The checker's oracle must be
// built from the wrapped inner algorithm — the intended discipline — or it
// would bless the very misroutes the tests inject.
type misroute struct {
	inner routing.Algorithm
	at    int
	dir   int
}

func (a misroute) NextPort(cur, dst int) (int, error) {
	if cur == a.at && cur != dst {
		return a.dir, nil
	}
	return a.inner.NextPort(cur, dst)
}

func (a misroute) Name() string { return "misroute" }

// TestDarkRouterViolationCaught forces a flit into a power-gated router and
// expects the checker's default handler to panic with a DarkRouter violation
// carrying a state snapshot — before the simulator's own bare panic fires.
func TestDarkRouterViolationCaught(t *testing.T) {
	m := topo.NewMesh(4, 4)
	region := sprint.NewRegion(m, 0, 4, sprint.Euclidean) // active: {0,1,4,5}
	if region.Active(2) {
		t.Fatal("test premise broken: node 2 should be dark at level 4")
	}
	// CDOR routes 0->5 as East to 1 then South to 5; the misroute instead
	// turns East at router 1, into dark router 2.
	inner := routing.NewCDOR(region)
	alg := misroute{inner: inner, at: 1, dir: topo.East}
	net, err := noc.New(noc.DefaultConfig(), alg, region.ActiveNodes())
	if err != nil {
		t.Fatal(err)
	}
	net.SetProbe(check.New(check.Config{Region: region, Oracle: inner.NextPort, Interval: 1}))
	net.Enqueue(0, 5)

	var got *check.Violation
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("misrouted flit reached a gated router without tripping the checker")
			}
			v, ok := r.(*check.Violation)
			if !ok {
				t.Fatalf("panic value %T (%v), want *check.Violation", r, r)
			}
			got = v
		}()
		net.RunUntil(nil, 100, nil, nil)
	}()
	if got.Kind != check.DarkRouter {
		t.Fatalf("violation kind = %s, want %s", got.Kind, check.DarkRouter)
	}
	if got.Snapshot == "" {
		t.Fatal("violation carries no network snapshot")
	}
	if !strings.Contains(got.Snapshot, "GATED") {
		t.Fatalf("snapshot does not show the gated router:\n%s", got.Snapshot)
	}
	if !strings.Contains(got.Error(), "dark-router") {
		t.Fatalf("Error() = %q, want the kind spelled out", got.Error())
	}
}

// TestRouteRuleViolationCaught injects a Y-before-X turn on a fully active
// region and expects a RouteRule report while the simulation still
// completes (the packet remains deliverable).
func TestRouteRuleViolationCaught(t *testing.T) {
	m := topo.NewMesh(4, 4)
	region := sprint.NewRegion(m, 0, 16, sprint.Euclidean)
	// CDOR resolves X first: 0->5 must leave router 0 eastward. Going
	// South instead breaks monotonicity (no missing link excuses it).
	inner := routing.NewCDOR(region)
	alg := misroute{inner: inner, at: 0, dir: topo.South}
	net, err := noc.New(noc.DefaultConfig(), alg, region.ActiveNodes())
	if err != nil {
		t.Fatal(err)
	}
	var kinds []check.Kind
	net.SetProbe(check.New(check.Config{
		Region:      region,
		Oracle:      inner.NextPort,
		Interval:    1,
		OnViolation: func(v *check.Violation) { kinds = append(kinds, v.Kind) },
	}))
	pkt := net.Enqueue(0, 5)
	net.RunUntil(nil, 200, nil, nil)
	if pkt.EjectedAt < 0 {
		t.Fatal("packet never delivered; the misroute should only add a detour")
	}
	if len(kinds) == 0 {
		t.Fatal("Y-before-X turn went unreported")
	}
	for _, k := range kinds {
		if k != check.RouteRule {
			t.Fatalf("unexpected %s violation alongside the route-rule report", k)
		}
	}
}

// TestUnclassifiableHopRejected pins the strict-oracle contract: a hop the
// oracle errors on is a RouteRule violation, never a silent skip.
func TestUnclassifiableHopRejected(t *testing.T) {
	m := topo.NewMesh(4, 4)
	net, err := noc.New(noc.DefaultConfig(), routing.NewDOR(m), nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []*check.Violation
	net.SetProbe(check.New(check.Config{
		Oracle: func(cur, dst int) (int, error) {
			return 0, errors.New("hop outside the checked discipline")
		},
		Interval:    1,
		OnViolation: func(v *check.Violation) { got = append(got, v) },
	}))
	net.Enqueue(0, 5)
	net.RunUntil(nil, 200, nil, nil)
	if len(got) == 0 {
		t.Fatal("oracle errors went unreported; unclassifiable hops must be rejected")
	}
	for _, v := range got {
		if v.Kind != check.RouteRule {
			t.Fatalf("unexpected %s violation, want %s", v.Kind, check.RouteRule)
		}
	}
	if !strings.Contains(got[0].Detail, "unclassifiable") {
		t.Fatalf("detail %q does not call the hop unclassifiable", got[0].Detail)
	}
}

// yxAlg is dimension-order routing Y before X on a mesh: deadlock-free, and
// inside any rectangle of the mesh it never leaves it.
type yxAlg struct{ m *topo.Mesh }

func (a yxAlg) NextPort(cur, dst int) (int, error) {
	c, t := a.m.Coord(cur), a.m.Coord(dst)
	switch {
	case t.Y > c.Y:
		return topo.South, nil
	case t.Y < c.Y:
		return topo.North, nil
	case t.X > c.X:
		return topo.East, nil
	case t.X < c.X:
		return topo.West, nil
	}
	return topo.Local, nil
}

func (a yxAlg) Name() string { return "YX" }

// TestRepairedRoutingNotJudgedByStaleHops runs a repair that changes the
// routing: the 4x4 mesh under X-Y routing retires its east column and
// resumes under Y-X routing. The checker learns the new discipline either
// through SetOracle, as core.FaultRun does, or from an oracle that
// follows the network's current algorithm and is never swapped, as the
// stepper equivalence tests' is. The checker caches its oracle's answer
// per (router, destination), and every pair of the surviving columns that
// differs in both coordinates turns the other way after the repair, so an
// answer cached before the repair would report those hops.
func TestRepairedRoutingNotJudgedByStaleHops(t *testing.T) {
	m := topo.NewMesh(4, 4)
	yx := yxAlg{m: m}
	all := make([]int, m.Nodes())
	for i := range all {
		all[i] = i
	}
	var west []int // columns 0-2
	for _, id := range all {
		if m.Coord(id).X < 3 {
			west = append(west, id)
		}
	}
	for _, c := range []struct {
		name      string
		setOracle bool
	}{{"SetOracle after the repair", true}, {"oracle follows the network", false}} {
		t.Run(c.name, func(t *testing.T) {
			net, err := noc.New(noc.DefaultConfig(), routing.NewDOR(m), nil)
			if err != nil {
				t.Fatal(err)
			}
			oracle := routing.NewDOR(m).NextPort
			if !c.setOracle {
				oracle = func(cur, dst int) (int, error) { return net.Algorithm().NextPort(cur, dst) }
			}
			chk := check.New(failOn(t, check.Config{Oracle: oracle, Interval: 1}))
			net.SetProbe(chk)
			if res := runSynthetic(t, net, all, 0.2); res.MeasuredPackets == 0 {
				t.Fatal("no packets measured before the repair")
			}
			rep, err := net.Reconfigure(west, yx, 10000)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Changed {
				t.Fatal("the repair changed nothing")
			}
			if c.setOracle {
				chk.SetOracle(yx.NextPort)
			}
			if res := runSynthetic(t, net, west, 0.2); res.MeasuredPackets == 0 {
				t.Fatal("no packets measured after the repair")
			}
			if chk.Violations() != 0 {
				t.Fatalf("%d violations", chk.Violations())
			}
		})
	}
}

// sendOne delivers one packet from src to dst through net and fails unless
// it arrives.
func sendOne(t *testing.T, net *noc.Network, src, dst int) {
	t.Helper()
	before := net.Stats().PacketsEjected
	net.Enqueue(src, dst)
	net.RunUntil(nil, 200, nil, func() bool { return net.Stats().PacketsEjected > before })
	if net.Stats().PacketsEjected == before {
		t.Fatalf("packet %d->%d not delivered", src, dst)
	}
}

// TestSetOracleTakesEffectAtOnce swaps the oracle without touching the
// network: the 4x4 mesh keeps routing X-Y, and the checker, which has
// judged a packet from node 0 to node 5 under an X-Y oracle, is switched
// to a Y-X one. The next such packet leaves node 0 eastward where the new
// oracle says south, and must be reported; an answer cached from the old
// oracle would pass it.
func TestSetOracleTakesEffectAtOnce(t *testing.T) {
	m := topo.NewMesh(4, 4)
	net, err := noc.New(noc.DefaultConfig(), routing.NewDOR(m), nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []*check.Violation
	chk := check.New(check.Config{
		Oracle:      routing.NewDOR(m).NextPort,
		Interval:    1,
		OnViolation: func(v *check.Violation) { got = append(got, v) },
	})
	net.SetProbe(chk)
	sendOne(t, net, 0, 5)
	if len(got) != 0 {
		t.Fatalf("%s violation under the X-Y oracle: %s", got[0].Kind, got[0].Detail)
	}
	chk.SetOracle(yxAlg{m: m}.NextPort)
	sendOne(t, net, 0, 5)
	want := "hop East at router 0 violates the routing discipline for packet"
	if len(got) == 0 || got[0].Kind != check.RouteRule || !strings.Contains(got[0].Detail, want) {
		t.Fatalf("violations %v, want a %s violation naming %q first", got, check.RouteRule, want)
	}
}

// ringAlg routes every packet clockwise around a 2x2 mesh — a textbook
// cyclic channel dependency that wormhole flow control turns into deadlock.
type ringAlg struct {
	m    *topo.Mesh
	next map[int]int
}

func (a ringAlg) NextPort(cur, dst int) (int, error) {
	if cur == dst {
		return topo.Local, nil
	}
	return a.m.PortTo(cur, a.next[cur]), nil
}

func (a ringAlg) Name() string { return "ring" }

// TestWatchdogCatchesDeadlock builds a guaranteed routing deadlock and
// expects the watchdog to flag it with a snapshot, instead of the simulator
// spinning forever, on the cycle its 2000-cycle stall count first runs out.
func TestWatchdogCatchesDeadlock(t *testing.T) {
	m := topo.NewMesh(2, 2)
	cfg := noc.Config{
		Width: 2, Height: 2,
		VCs: 1, BufferDepth: 1,
		PacketLength: 4, FlitBits: 64, LinkLatency: 1,
	}
	// Clockwise ring 0 -> 1 -> 3 -> 2 -> 0; each node sends three hops
	// around, so all four packets hold links while waiting for the next.
	alg := ringAlg{m: m, next: map[int]int{0: 1, 1: 3, 3: 2, 2: 0}}
	net, err := noc.New(cfg, alg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got *check.Violation
	net.SetProbe(check.New(check.Config{
		Interval: 1,
		OnViolation: func(v *check.Violation) {
			if got == nil {
				got = v
			}
		},
	}))
	for src, dst := range map[int]int{0: 2, 1: 0, 3: 1, 2: 3} {
		net.Enqueue(src, dst)
	}
	for i := 0; i < 4000 && got == nil; i++ {
		net.Step()
	}
	if got == nil {
		t.Fatal("cyclic ring routing did not deadlock, or the watchdog missed it")
	}
	if got.Kind != check.Watchdog {
		t.Fatalf("violation kind = %s, want %s", got.Kind, check.Watchdog)
	}
	if got.Cycle != 2006 {
		t.Fatalf("watchdog fired at cycle %d, want 2006", got.Cycle)
	}
	if !strings.Contains(got.Snapshot, "router") {
		t.Fatalf("snapshot missing per-router state:\n%s", got.Snapshot)
	}
	if net.InFlight() == 0 {
		t.Fatal("network drained — not a deadlock")
	}
}

// TestFlitCensusBalances exercises the census directly mid-flight.
func TestFlitCensusBalances(t *testing.T) {
	m := topo.NewMesh(4, 4)
	net, err := noc.New(noc.DefaultConfig(), routing.NewDOR(m), nil)
	if err != nil {
		t.Fatal(err)
	}
	net.Enqueue(0, 15)
	net.Enqueue(5, 10)
	var census []noc.ClassCensus
	for i := 0; i < 40; i++ {
		net.Step()
		if census, err = net.Audit(census); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		for class, cen := range census {
			if cen.Created != cen.Ejected+cen.AtSource+cen.InNetwork {
				t.Fatalf("cycle %d class %d: census unbalanced: %+v", i, class, cen)
			}
		}
	}
	if net.InFlight() != 0 {
		t.Fatal("packets did not drain in 40 cycles")
	}
}

// TestReconfigureSourceDropsPass shrinks a loaded region while its NIs hold
// queued packets toward retiring nodes: the source-queue drops reach the
// checker at each packet's source, which the drop rule must accept.
func TestReconfigureSourceDropsPass(t *testing.T) {
	m := topo.NewMesh(4, 4)
	big := sprint.NewRegion(m, 0, 8, sprint.Euclidean)
	small := sprint.NewRegion(m, 0, 4, sprint.Euclidean)
	net, err := noc.New(noc.DefaultConfig(), routing.NewCDOR(big), big.ActiveNodes())
	if err != nil {
		t.Fatal(err)
	}
	chk := check.New(failOn(t, check.Config{Region: big, Oracle: routing.NewCDOR(big).NextPort, Interval: 1}))
	net.SetProbe(chk)
	var retiring []int
	for _, id := range big.ActiveNodes() {
		if !small.Active(id) {
			retiring = append(retiring, id)
		}
	}
	for i := 0; i < 6; i++ { // more than one packet per source stays queued
		for _, src := range small.ActiveNodes() {
			net.Enqueue(src, retiring[(i+src)%len(retiring)])
		}
	}
	net.Step()
	rep, err := net.Reconfigure(small.ActiveNodes(), routing.NewCDOR(small), 10000)
	if err != nil {
		t.Fatal(err)
	}
	chk.SetRegion(small)
	chk.SetOracle(routing.NewCDOR(small).NextPort)
	// Quiesce starts no new packet, so all but each source's first stay
	// queued until the drop.
	if want := int64(5 * len(small.ActiveNodes())); rep.PacketsDropped < want {
		t.Fatalf("reconfiguration dropped %d packets, want at least %d from source queues", rep.PacketsDropped, want)
	}
	net.Enqueue(0, 5)
	net.RunUntil(nil, 200, nil, nil)
	if chk.Violations() != 0 {
		t.Fatalf("%d violations", chk.Violations())
	}
}

// TestForgedEjectionRejected feeds the checker ejections directly: a flit may
// leave only at its destination, or as a drop at its source while never
// injected; every other exit is a RouteRule violation.
func TestForgedEjectionRejected(t *testing.T) {
	net, err := noc.New(noc.DefaultConfig(), routing.NewDOR(topo.NewMesh(4, 4)), nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []check.Kind
	chk := check.New(check.Config{OnViolation: func(v *check.Violation) { got = append(got, v.Kind) }})
	for _, c := range []struct {
		name       string
		node       int
		injectedAt int64
		dropped    bool
		ok         bool
	}{
		{"delivered at dst", 5, 3, false, true},
		{"black-holed at dst", 5, 3, true, true},
		{"queued drop at src", 0, -1, true, true},
		{"delivered at src", 0, -1, false, false},
		{"injected drop at src", 0, 3, true, false},
		{"drop elsewhere", 7, -1, true, false},
		{"delivered elsewhere", 7, 3, false, false},
	} {
		got = got[:0]
		pkt := &noc.Packet{ID: 1, Src: 0, Dst: 5, Length: 1, InjectedAt: c.injectedAt}
		chk.FlitEjected(net, c.node, pkt, true, c.dropped)
		if c.ok && len(got) != 0 {
			t.Errorf("%s: unexpected %v", c.name, got)
		}
		if !c.ok && (len(got) != 1 || got[0] != check.RouteRule) {
			t.Errorf("%s: got %v, want one %s violation", c.name, got, check.RouteRule)
		}
	}
}
