package noc

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"nocsprint/internal/mesh"
	"nocsprint/internal/routing"
	"nocsprint/internal/sprint"
	"nocsprint/internal/topo"
)

// auditProbe compares, at the end of every cycle that is a multiple of
// every, the dirty-set Audit against the full walk: every router marked
// dirty, then audited. It calls Audit from CycleEnd, as the invariant
// checker does.
type auditProbe struct {
	t     *testing.T
	every int64
}

func (auditProbe) FlitArrived(*Network, int, int, *Packet, FlitType, int) {}
func (auditProbe) FlitInjected(*Network, int, *Packet, int)               {}
func (auditProbe) FlitEjected(*Network, int, *Packet, bool, bool)         {}
func (auditProbe) CreditDelivered(*Network, int, int, int, int)           {}

func (p auditProbe) CycleEnd(n *Network, cycle int64) {
	if cycle%p.every == 0 {
		if err := auditAgainstFullWalk(p.t, n, fmt.Sprintf("cycle %d end", cycle)); err != nil {
			p.t.Fatal(err)
		}
	}
}

// auditAgainstFullWalk requires the dirty-set Audit of n to return the same
// census and error as the full walk, and returns that error.
func auditAgainstFullWalk(t *testing.T, n *Network, when string) error {
	t.Helper()
	got, gotErr := n.Audit(nil)
	n.markAllDirty()
	want, wantErr := n.Audit(nil)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !slices.Equal(got, want) {
		t.Fatalf("%s: dirty-set audit gave %+v, %v; the full walk %+v, %v", when, got, gotErr, want, wantErr)
	}
	return wantErr
}

// TestAuditMatchesFullWalk is the differential test of the dirty-set audit:
// on the mesh, the torus and C(16;1,4) under random traffic, on a dark
// 8x8 chip, on a mesh with runtime gating and across a Reconfigure, the
// audit that walks only dirty and busy routers returns the same census and
// error as the walk over every router. It compares at the end of cycles
// inside Step, as the checker audits, either every cycle or every 16th (the
// checker's default interval, so the dirty set collects 16 cycles of
// changes); with every cycle it also compares between Steps, after the work
// set is pruned, so idle routers are skipped by the word-compare. Every 50
// cycles of those runs it loses one credit of a random router, busy or
// idle, through LoseLinkCredit: both audits must report the same first
// violation, and giving the credit back must clear it.
func TestAuditMatchesFullWalk(t *testing.T) {
	dor := func(w, h int) (topo.Topology, routing.Algorithm, []int, error) {
		return topo.NewMesh(w, h), routing.NewDOR(mesh.New(w, h)), nil, nil
	}
	cdor := func(w, h, level int) func() (topo.Topology, routing.Algorithm, []int, error) {
		return func() (topo.Topology, routing.Algorithm, []int, error) {
			r := sprint.NewRegion(mesh.New(w, h), 0, level, sprint.Euclidean)
			return topo.NewMesh(w, h), routing.NewCDOR(r), r.ActiveNodes(), nil
		}
	}
	for _, c := range []struct {
		name   string
		build  func() (topo.Topology, routing.Algorithm, []int, error)
		rate   float64
		gating bool
		reconf bool
	}{
		{name: "mesh-4x4", build: func() (topo.Topology, routing.Algorithm, []int, error) { return dor(4, 4) }, rate: 0.3},
		{name: "mesh-8x8-level6", build: cdor(8, 8, 6), rate: 0.15},
		{name: "torus-4x4", build: func() (topo.Topology, routing.Algorithm, []int, error) {
			tp, err := topo.NewTorus(4, 4)
			if err != nil {
				return nil, nil, nil, err
			}
			return tp, routing.NewTorusDOR(tp), nil, nil
		}, rate: 0.4},
		{name: "circulant-16", build: func() (topo.Topology, routing.Algorithm, []int, error) {
			tp, err := topo.NewCirculant(16, 1, 4)
			if err != nil {
				return nil, nil, nil, err
			}
			alg, err := routing.NewRingCirculant(tp)
			return tp, alg, nil, err
		}, rate: 0.4},
		{name: "mesh-4x4-gating", build: cdor(4, 4, 8), rate: 0.1, gating: true},
		{name: "mesh-6x6-reconfigure", build: cdor(6, 6, 9), rate: 0.15, reconf: true},
	} {
		for _, every := range []int64{1, 16} {
			t.Run(fmt.Sprintf("%s/every%d", c.name, every), func(t *testing.T) {
				tp, alg, active, err := c.build()
				if err != nil {
					t.Fatal(err)
				}
				net, err := NewTopo(DefaultConfig(), tp, alg, active)
				if err != nil {
					t.Fatal(err)
				}
				if c.gating {
					if err := net.EnableRuntimeGating(); err != nil {
						t.Fatal(err)
					}
				}
				net.SetProbe(auditProbe{t: t, every: every})
				nodes := active
				if nodes == nil {
					nodes = make([]int, net.Nodes())
					for i := range nodes {
						nodes[i] = i
					}
				}
				rng := rand.New(rand.NewSource(17))
				leaks := 0
				pktProb := c.rate / float64(net.Config().PacketLength)
				for cyc := 0; cyc < 1500; cyc++ {
					if c.reconf && cyc == 750 {
						// Shrink the region under load; the drain runs inside
						// Reconfigure, so the probe audits its cycles too.
						r := sprint.NewRegion(tp.(*topo.Mesh).Mesh(), 0, 4, sprint.Euclidean)
						if _, err := net.Reconfigure(r.ActiveNodes(), routing.NewCDOR(r), 20000); err != nil {
							t.Fatal(err)
						}
						nodes = r.ActiveNodes()
					}
					for _, src := range nodes {
						if rng.Float64() < pktProb {
							dst := nodes[(slices.Index(nodes, src)+1+rng.Intn(len(nodes)-1))%len(nodes)]
							net.Enqueue(src, dst)
						}
					}
					net.Step()
					if every != 1 {
						continue
					}
					when := fmt.Sprintf("after cycle %d", cyc)
					if err := auditAgainstFullWalk(t, net, when); err != nil {
						t.Fatal(err)
					}
					if cyc%50 != 25 {
						continue
					}
					id, p, vc := rng.Intn(net.Nodes()), 1+rng.Intn(net.P-1), rng.Intn(net.cfg.VCs)
					net.LoseLinkCredit(id, p, vc)
					if auditAgainstFullWalk(t, net, when+", credit lost") != nil {
						leaks++
					}
					net.routers[id].out[p*net.cfg.VCs+vc].credits++
					net.markDirty(id)
					if err := auditAgainstFullWalk(t, net, when+", credit restored"); err != nil {
						t.Fatal(err)
					}
				}
				if err := net.DrainWithBudgetCtx(nil, 20000); err != nil {
					t.Fatal(err)
				}
				if err := auditAgainstFullWalk(t, net, "drained"); err != nil {
					t.Fatal(err)
				}
				if every == 1 && leaks == 0 {
					t.Fatal("no lost credit was reported")
				}
			})
		}
	}
}

// TestAuditReportsWorkOutsideWorkSet is the mutation the word-compare
// exists for: a router dropped from the active-work set while it still
// holds work, as a faulty prune would leave it, is neither dirty nor busy,
// yet Audit must walk it, count its flits and report it. On a loaded chip
// the router buffers a flit; on an idle one its NI queues a packet, and no
// neighbour is busy, so only the word-compare brings the router into the
// walk.
func TestAuditReportsWorkOutsideWorkSet(t *testing.T) {
	for _, c := range []struct {
		name string
		// load drives the network and returns a router that holds work.
		load func(*Network) int
	}{
		{"buffered flit", func(net *Network) int {
			rng := rand.New(rand.NewSource(3))
			for cyc := 0; cyc < 400; cyc++ {
				for src := 0; src < net.Nodes(); src++ {
					if rng.Float64() < 0.05 {
						net.Enqueue(src, (src+1+rng.Intn(net.Nodes()-1))%net.Nodes())
					}
				}
				net.Step()
			}
			return slices.IndexFunc(net.routers, func(r *router) bool { return r.occupancy() > 0 })
		}},
		{"queued packet on an idle chip", func(net *Network) int {
			net.Enqueue(5, 10)
			return 5
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			net, err := New(DefaultConfig(), routing.NewDOR(mesh.New(4, 4)), nil)
			if err != nil {
				t.Fatal(err)
			}
			id := c.load(net)
			if id < 0 || net.routerIdle(id) {
				t.Fatal("no router holds work")
			}
			clean, err := net.Audit(nil) // empties the dirty set
			if err != nil {
				t.Fatal(err)
			}
			net.work[id>>6] &^= 1 << uint(id&63)
			census, err := net.Audit(nil)
			want := fmt.Sprintf("router %d holds work outside the active-work set", id)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("Audit returned %v, want an error naming %q", err, want)
			}
			if !slices.Equal(census, clean) {
				t.Fatalf("census %+v, want %+v: the pruned router's flits went uncounted", census, clean)
			}
		})
	}
}

// TestAuditRemembersVisitedRouters corrupts a busy router the way a faulty
// pipeline stage would, without marking it dirty, then lets the network
// drain, so the router goes idle and leaves the work set before the next
// Audit, as it may between two of the checker's audits 16 cycles apart. The
// router was visited by Steps since the last audit, so it is dirty, and the
// leak must be reported.
func TestAuditRemembersVisitedRouters(t *testing.T) {
	net, err := New(DefaultConfig(), routing.NewDOR(mesh.New(4, 4)), nil)
	if err != nil {
		t.Fatal(err)
	}
	net.Enqueue(0, 3)
	net.Step()
	if _, err := net.Audit(nil); err != nil {
		t.Fatal(err)
	}
	if !inSet(net.work, 0) {
		t.Fatal("router 0 is not busy injecting its packet")
	}
	// VC 3 of the link east; the packet takes VC 0, so the lost credit
	// never stalls it.
	net.routers[0].out[int(mesh.East)*net.cfg.VCs+3].credits--
	if err := net.DrainWithBudgetCtx(nil, 100); err != nil {
		t.Fatal(err)
	}
	if slices.ContainsFunc(net.work, func(w uint64) bool { return w != 0 }) {
		t.Fatal("work set not empty after the drain")
	}
	want := "credit leak on link 0->1 vc 3"
	if _, err := net.Audit(nil); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Audit returned %v, want an error naming %q", err, want)
	}
}

// TestAuditBalancesLinksIntoChangedRouters drops a buffered flit at the
// downstream end of a link whose upstream router has gone idle, the state a
// router would leave by forwarding a flit without returning its credit. Only
// the downstream router is dirty, yet the link's balance changed, so Audit
// must balance the upstream router's link into it too and report the leak,
// as the full walk does.
func TestAuditBalancesLinksIntoChangedRouters(t *testing.T) {
	net, err := New(DefaultConfig(), routing.NewDOR(mesh.New(4, 4)), nil)
	if err != nil {
		t.Fatal(err)
	}
	nVC := net.cfg.VCs
	rng := rand.New(rand.NewSource(5))
	found := 0
	for cyc := 0; cyc < 3000 && found < 5; cyc++ {
		for src := 0; src < net.Nodes(); src++ {
			if rng.Float64() < 0.08 {
				net.Enqueue(src, (src+1+rng.Intn(net.Nodes()-1))%net.Nodes())
			}
		}
		net.Step()
		if _, err := net.Audit(nil); err != nil { // empties the dirty set
			t.Fatal(err)
		}
		for v, r := range net.routers {
			for b := range r.in {
				u := r.downstream[b/nVC] // the router feeding this input
				if b/nVC == topo.Local || u < 0 || r.in[b].n < 2 || inSet(net.work, u) {
					continue
				}
				found++
				when := fmt.Sprintf("cycle %d, flit lost at router %d slot %d", cyc, v, b)
				r.in[b].n--
				net.markDirty(v)
				want := fmt.Sprintf("credit leak on link %d->%d vc %d", u, v, b%nVC)
				if err := auditAgainstFullWalk(t, net, when); err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("%s: Audit returned %v, want an error naming %q", when, err, want)
				}
				r.in[b].n++
				net.markDirty(v)
				if err := auditAgainstFullWalk(t, net, when+", restored"); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("no buffered flits behind an idle upstream router")
	}
}
