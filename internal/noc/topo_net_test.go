package noc

import (
	"math/rand"
	"strings"
	"testing"

	"nocsprint/internal/routing"
	"nocsprint/internal/topo"
)

// topoNet builds a full network over an arbitrary topology with its matching
// deadlock-free router.
func topoNet(t *testing.T, tp topo.Topology) *Network {
	t.Helper()
	var alg routing.Algorithm
	switch tt := tp.(type) {
	case *topo.Torus:
		alg = routing.NewTorusDOR(tt)
	case *topo.Circulant:
		a, err := routing.NewRingCirculant(tt)
		if err != nil {
			t.Fatal(err)
		}
		alg = a
	default:
		t.Fatalf("no router for %s", tp.Name())
	}
	net, err := NewTopo(DefaultConfig(), tp, alg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestTopoNetworksDeliverAndHoldInvariants drives the torus and
// ring-circulant fabrics under random traffic with the structural invariant
// sweep every cycle: credit conservation, buffer bounds, and wormhole
// atomicity must hold on arbitrary-degree port layouts exactly as on the
// mesh, and all traffic must drain (the dateline VC scheme is
// deadlock-free in practice, not just on the dependency graph).
func TestTopoNetworksDeliverAndHoldInvariants(t *testing.T) {
	builders := []struct {
		name  string
		build func() (topo.Topology, error)
	}{
		{"torus-4x4", func() (topo.Topology, error) { return topo.NewTorus(4, 4) }},
		{"torus-5x4", func() (topo.Topology, error) { return topo.NewTorus(5, 4) }},
		{"circulant-16-1-4", func() (topo.Topology, error) { return topo.NewCirculant(16, 1, 4) }},
		{"circulant-13-1-5", func() (topo.Topology, error) { return topo.NewCirculant(13, 1, 5) }},
	}
	for _, tc := range builders {
		t.Run(tc.name, func(t *testing.T) {
			tp, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			net := topoNet(t, tp)
			n := tp.Nodes()
			rng := rand.New(rand.NewSource(42))
			for cyc := 0; cyc < 1500; cyc++ {
				if rng.Float64() < 0.5 {
					net.Enqueue(rng.Intn(n), rng.Intn(n))
				}
				net.Step()
				if _, err := net.Audit(nil); err != nil {
					t.Fatalf("cycle %d: %v", cyc, err)
				}
			}
			if err := net.DrainWithBudgetCtx(nil, 20000); err != nil {
				t.Fatal(err)
			}
			s := net.Stats()
			if s.PacketsEjected != s.PacketsCreated || s.PacketsEjected == 0 {
				t.Fatalf("delivery incomplete: created %d ejected %d", s.PacketsCreated, s.PacketsEjected)
			}
		})
	}
}

// TestTopoNetworkLatencyMatchesHops checks single-packet latency on the
// torus against the analytic zero-load model: wraparound must shorten paths
// relative to the mesh (0 -> 15 on the 4x4 torus is 2 hops, not 6).
func TestTopoNetworkLatencyMatchesHops(t *testing.T) {
	tp, err := topo.NewTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	for _, tc := range []struct{ src, dst, hops int }{
		{0, 1, 1}, {0, 3, 1}, {0, 15, 2}, {0, 10, 4}, {5, 5, 0},
	} {
		net := topoNet(t, tp)
		net.SetMeasuring(true)
		p := net.Enqueue(tc.src, tc.dst)
		if err := net.DrainWithBudgetCtx(nil, 500); err != nil {
			t.Fatal(err)
		}
		want := ZeroLoadLatency(cfg, tc.hops)
		if got := float64(p.EjectedAt - p.CreatedAt); got != want {
			t.Errorf("%d->%d (%d hops): latency %v, want %v", tc.src, tc.dst, tc.hops, got, want)
		}
	}
}

// TestNewTopoValidation pins the constructor contract for non-mesh fabrics.
func TestNewTopoValidation(t *testing.T) {
	tp, err := topo.NewCirculant(16, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := routing.NewRingCirculant(tp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTopo(DefaultConfig(), nil, alg, nil); err == nil {
		t.Error("nil topology accepted")
	}
	bad := DefaultConfig()
	bad.VCs = 0
	if _, err := NewTopo(bad, tp, alg, nil); err == nil {
		t.Error("invalid fabric config accepted")
	}
	// 3 VCs cannot be partitioned across the circulant router's 2 dateline
	// classes.
	odd := DefaultConfig()
	odd.VCs = 3
	if _, err := NewTopo(odd, tp, alg, nil); err == nil {
		t.Error("indivisible VC/class split accepted")
	}
	// The allocators keep one bit per input VC: 5 ports x 13 VCs = 65 is
	// one too many, 5 x 12 = 60 fits.
	wide := DefaultConfig()
	wide.VCs = 13
	if _, err := NewTopo(wide, tp, alg, nil); err == nil || !strings.Contains(err.Error(), "65 input VCs") {
		t.Errorf("5 ports x 13 VCs: error %v, want the input-VC limit", err)
	}
	wide.VCs = 12
	if _, err := NewTopo(wide, tp, alg, nil); err != nil {
		t.Errorf("5 ports x 12 VCs rejected: %v", err)
	}
	net, err := NewTopo(DefaultConfig(), tp, alg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if net.Topo() != topo.Topology(tp) {
		t.Error("Topo() does not return the construction topology")
	}
	if net.Algorithm() != routing.Algorithm(alg) {
		t.Error("Algorithm() does not return the construction algorithm")
	}
}
