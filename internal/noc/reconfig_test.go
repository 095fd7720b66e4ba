package noc

import (
	"math/bits"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"nocsprint/internal/mesh"
	"nocsprint/internal/routing"
	"nocsprint/internal/sprint"
	"nocsprint/internal/topo"
)

// regionNet builds a network gated to a level-8 sprint region with CDOR
// routing, the configuration the fault experiments reconfigure.
func regionNet(t *testing.T, level int) (*Network, *sprint.Region) {
	t.Helper()
	cfg := DefaultConfig()
	m := mesh.New(cfg.Width, cfg.Height)
	r := sprint.NewRegion(m, 0, level, sprint.Euclidean)
	net, err := New(cfg, routing.NewCDOR(r), r.ActiveNodes())
	if err != nil {
		t.Fatal(err)
	}
	return net, r
}

// TestReconfigureNoOpZeroDrift: a run sprinkled with same-active-set
// Reconfigure calls is bit-identical — reflect.DeepEqual on the full network
// state — to a run that never reconfigured.
func TestReconfigureNoOpZeroDrift(t *testing.T) {
	mkRun := func(reconfig bool) *Network {
		net, r := regionNet(t, 8)
		net.SetMeasuring(true)
		rng := rand.New(rand.NewSource(11))
		active := r.ActiveNodes()
		for cycle := 0; cycle < 600; cycle++ {
			if reconfig && cycle%50 == 25 {
				rep, err := net.Reconfigure(active, nil, 1000)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Changed || rep.DrainCycles != 0 || rep.PacketsDropped != 0 {
					t.Fatalf("no-op reconfigure did work: %+v", rep)
				}
			}
			if rng.Float64() < 0.3 {
				src := active[rng.Intn(len(active))]
				dst := active[rng.Intn(len(active))]
				net.Enqueue(src, dst)
			}
			net.Step()
		}
		return net
	}
	plain := mkRun(false)
	noop := mkRun(true)
	if !reflect.DeepEqual(plain, noop) {
		t.Fatalf("no-op reconfiguration drifted the simulation:\nplain %+v\nnoop  %+v",
			plain.Stats(), noop.Stats())
	}
}

// TestReconfigureShrinkDropsAndAccounts: shrinking the region mid-traffic
// drops exactly the undeliverable packets, keeps the flit census balanced,
// and leaves the surviving sub-network fully operational.
func TestReconfigureShrinkDropsAndAccounts(t *testing.T) {
	net, r := regionNet(t, 8)
	net.SetMeasuring(true)
	rng := rand.New(rand.NewSource(5))
	active := r.ActiveNodes()
	for cycle := 0; cycle < 200; cycle++ {
		for i := 0; i < 2; i++ {
			src := active[rng.Intn(len(active))]
			dst := active[rng.Intn(len(active))]
			net.Enqueue(src, dst)
		}
		net.Step()
	}

	shrunk := sprint.NewRegion(r.Mesh(), 0, 4, sprint.Euclidean)
	rep, err := net.Reconfigure(shrunk.ActiveNodes(), routing.NewCDOR(shrunk), 5000)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Changed {
		t.Fatal("shrink reported no change")
	}
	if rep.PacketsDropped == 0 {
		t.Fatal("no packets dropped despite heavy traffic to retiring nodes")
	}
	if rep.DrainCycles < 1 {
		t.Fatal("shrink drained in zero cycles with traffic in flight")
	}

	st := net.Stats()
	if st.PacketsDropped != rep.PacketsDropped {
		t.Fatalf("stats dropped %d != report %d", st.PacketsDropped, rep.PacketsDropped)
	}
	census, err := net.Audit(nil)
	if err != nil {
		t.Fatal(err)
	}
	for class, cen := range census {
		if cen.Created != cen.Ejected+cen.Dropped+cen.AtSource+cen.InNetwork {
			t.Fatalf("class %d census unbalanced after shrink: %+v", class, cen)
		}
	}
	if got := net.ActiveRouters(); got != 4 {
		t.Fatalf("%d active routers after shrink, want 4", got)
	}

	// Survivors still deliver; dark routers stay silent.
	surv := shrunk.ActiveNodes()
	p := net.Enqueue(surv[len(surv)-1], surv[0])
	if err := net.DrainWithBudgetCtx(nil, 50000); err != nil {
		t.Fatal(err)
	}
	if p.EjectedAt < 0 {
		t.Fatal("post-shrink packet never delivered")
	}
	for id, rt := range net.routers {
		if !shrunk.Active(id) && rt.occupancy() != 0 {
			t.Fatalf("dark router %d holds %d flits", id, rt.occupancy())
		}
	}
}

// TestReconfigureGrowReactivates: a router brought back by a grow
// reconfiguration resumes from a reset-equivalent state and carries traffic.
func TestReconfigureGrowReactivates(t *testing.T) {
	net, r := regionNet(t, 4)
	grown := sprint.NewRegion(r.Mesh(), 0, 8, sprint.Euclidean)
	rep, err := net.Reconfigure(grown.ActiveNodes(), routing.NewCDOR(grown), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Changed || rep.PacketsDropped != 0 {
		t.Fatalf("idle grow: %+v, want changed with no drops", rep)
	}
	nodes := grown.ActiveNodes()
	newest := nodes[len(nodes)-1]
	p := net.Enqueue(0, newest)
	if err := net.DrainWithBudgetCtx(nil, 1000); err != nil {
		t.Fatal(err)
	}
	if p.EjectedAt < 0 {
		t.Fatal("packet to reactivated node never delivered")
	}
}

// TestReconfigureDrainTimeout: an impossible drain budget fails cleanly —
// error returned, active set unchanged, simulation still consistent and able
// to drain later.
func TestReconfigureDrainTimeout(t *testing.T) {
	net, r := regionNet(t, 8)
	active := r.ActiveNodes()
	for i := 0; i < 40; i++ {
		net.Enqueue(active[i%len(active)], active[(i+3)%len(active)])
	}
	// Step until flits are genuinely mid-fabric: source queues drain
	// instantly under quiesce, buffered flits cannot.
	for i := 0; i < 10; i++ {
		net.Step()
	}
	shrunk := sprint.NewRegion(r.Mesh(), 0, 2, sprint.Euclidean)
	_, err := net.Reconfigure(shrunk.ActiveNodes(), routing.NewCDOR(shrunk), 1)
	if err == nil {
		t.Fatal("1-cycle drain budget succeeded with 40 packets queued")
	}
	if !strings.Contains(err.Error(), "did not drain") {
		t.Fatalf("unexpected error: %v", err)
	}
	if got := net.ActiveRouters(); got != 8 {
		t.Fatalf("failed reconfiguration changed active routers to %d", got)
	}
	// The network is un-quiesced and consistent: it can still drain fully.
	if err := net.DrainWithBudgetCtx(nil, 100000); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Audit(nil); err != nil {
		t.Fatal(err)
	}
}

func TestReconfigureRejectsBadInput(t *testing.T) {
	net, r := regionNet(t, 4)
	if _, err := net.Reconfigure(nil, nil, 100); err == nil {
		t.Error("empty active set accepted")
	}
	if _, err := net.Reconfigure([]int{0, 99}, nil, 100); err == nil {
		t.Error("out-of-mesh node accepted")
	}
	if _, err := net.Reconfigure(r.ActiveNodes(), nil, 0); err == nil {
		t.Error("zero drain budget accepted")
	}
	gated := fullNet(t, DefaultConfig())
	if err := gated.EnableRuntimeGating(); err != nil {
		t.Fatal(err)
	}
	if _, err := gated.Reconfigure([]int{0, 1}, nil, 100); err == nil {
		t.Error("reconfiguration under runtime gating accepted")
	}
}

// TestReconfigureInstallsVCPolicy: Reconfigure installs the new
// algorithm's dateline VC classes, on the no-op path and after a drain,
// and rejects before draining anything a policy NewTopo would reject.
func TestReconfigureInstallsVCPolicy(t *testing.T) {
	tp, err := topo.NewTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	dor := routing.NewTorusDOR(tp)
	// The same routes without the VCPolicy methods.
	plain := struct{ routing.Algorithm }{dor}
	all := make([]int, tp.Nodes())
	for i := range all {
		all[i] = i
	}

	cfg := DefaultConfig()
	cfg.VCs = 3
	if _, err := NewTopo(cfg, tp, dor, nil); err == nil || !strings.Contains(err.Error(), "not divisible") {
		t.Fatalf("NewTopo with 3 VCs and 2 route classes: err = %v", err)
	}
	net, err := NewTopo(cfg, tp, plain, all[1:])
	if err != nil {
		t.Fatal(err)
	}
	net.Enqueue(1, 2)
	net.Step()
	for _, active := range [][]int{all[1:], all} { // the no-op path, then the drain path
		cycle := net.Cycle()
		_, err := net.Reconfigure(active, dor, 100)
		if err == nil || !strings.Contains(err.Error(), "not divisible") {
			t.Errorf("Reconfigure to %s with 3 VCs: err = %v", dor.Name(), err)
		}
		if net.Cycle() != cycle || net.ActiveRouters() != 15 || net.vcClasses != 0 || net.Algorithm() != routing.Algorithm(plain) {
			t.Errorf("rejected reconfiguration changed the network: cycle %d→%d, %d active, %d VC classes, routing %s",
				cycle, net.Cycle(), net.ActiveRouters(), net.vcClasses, net.Algorithm().Name())
		}
	}

	cfg.VCs = 4
	for _, tc := range []struct {
		name  string
		start []int
	}{{"no-op", all}, {"drain", all[1:]}} {
		net, err := NewTopo(cfg, tp, plain, tc.start)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := net.Reconfigure(all, dor, 100)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rep.Changed != (tc.name == "drain") {
			t.Errorf("%s: report %+v", tc.name, rep)
		}
		if net.vcClasses != 2 || net.vcClassFn == nil || net.Algorithm() != routing.Algorithm(dor) {
			t.Errorf("%s: after reconfiguring to %s the network has %d VC classes", tc.name, dor.Name(), net.vcClasses)
		}
	}
}

// TestReconfigureNoOpRepartitionsVARequesters drops the dateline VC policy
// on the no-op path while a VA requester waits for a VC of route class 1:
// from then on it must request from its message class's whole partition,
// as a grant under the algorithm in force would, so the audit passes and
// the traffic drains.
func TestReconfigureNoOpRepartitionsVARequesters(t *testing.T) {
	tp, err := topo.NewTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	dor := routing.NewTorusDOR(tp)
	plain := struct{ routing.Algorithm }{dor}
	net, err := NewTopo(DefaultConfig(), tp, dor, nil)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, tp.Nodes())
	for i := range all {
		all[i] = i
	}
	rng := rand.New(rand.NewSource(1))
	classOne := func() bool {
		for _, r := range net.routers {
			for set := r.vaSet; set != 0; set &= set - 1 {
				if r.in[bits.TrailingZeros64(set)].vcLo != 0 {
					return true
				}
			}
		}
		return false
	}
	for !classOne() {
		if net.Cycle() == 2000 {
			t.Fatal("no VA requester waits for a route-class-1 VC")
		}
		for src := range all {
			if rng.Float64() < 0.1 {
				net.Enqueue(src, (src+1+rng.Intn(len(all)-1))%len(all))
			}
		}
		net.Step()
	}
	if rep, err := net.Reconfigure(all, plain, 100); err != nil || rep.Changed {
		t.Fatalf("no-op reconfiguration: %+v, %v", rep, err)
	}
	if _, err := net.Audit(nil); err != nil {
		t.Fatal(err)
	}
	if err := net.DrainWithBudgetCtx(nil, 20000); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Audit(nil); err != nil {
		t.Fatal(err)
	}
}

func TestTryEnqueuePacketGatedEndpoints(t *testing.T) {
	net, r := regionNet(t, 4)
	active := r.ActiveNodes()
	var dark int
	for id := 0; id < net.Nodes(); id++ {
		if !r.Active(id) {
			dark = id
			break
		}
	}
	if _, err := net.TryEnqueuePacket(dark, active[0], 0, 5); err == nil {
		t.Error("gated source accepted")
	}
	if _, err := net.TryEnqueuePacket(active[0], dark, 0, 5); err == nil {
		t.Error("gated destination accepted")
	}
	if _, err := net.TryEnqueuePacket(-1, active[0], 0, 5); err == nil {
		t.Error("out-of-mesh source accepted")
	}
	if p, err := net.TryEnqueuePacket(active[0], active[1], 0, 5); err != nil || p == nil {
		t.Errorf("healthy enqueue failed: %v", err)
	}
	// The panicking wrapper still panics on gated endpoints (invariant
	// violation for callers that claim to know the region)...
	func() {
		defer func() {
			if recover() == nil {
				t.Error("EnqueuePacket on gated node did not panic")
			}
		}()
		net.EnqueuePacket(dark, active[0], 0, 5)
	}()
	// ...and programming errors panic in both.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("TryEnqueuePacket with bad class did not panic")
			}
		}()
		_, _ = net.TryEnqueuePacket(active[0], active[1], 99, 5)
	}()
}

// TestDrainWithBudgetExactBoundary: a drain that completes on exactly the
// budgeted cycle succeeds (the classic off-by-one).
func TestDrainWithBudgetExactBoundary(t *testing.T) {
	cfg := DefaultConfig()
	net := fullNet(t, cfg)
	net.Enqueue(0, 1)
	probe := fullNet(t, cfg)
	probe.Enqueue(0, 1)
	// Bounded, so a stepper that deadlocks fails here instead of hanging.
	need := 0
	for !probe.Drained() {
		if need == 1000 {
			t.Fatalf("one packet not drained in %d cycles", need)
		}
		probe.Step()
		need++
	}
	if err := net.DrainWithBudgetCtx(nil, need); err != nil {
		t.Fatalf("drain taking exactly %d cycles rejected: %v", need, err)
	}
	under := fullNet(t, cfg)
	under.Enqueue(0, 1)
	if err := under.DrainWithBudgetCtx(nil, need-1); err == nil {
		t.Fatalf("drain budget %d sufficed for a %d-cycle drain", need-1, need)
	}
}
