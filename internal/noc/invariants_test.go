package noc

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"nocsprint/internal/mesh"
	"nocsprint/internal/routing"
)

// TestCheckInvariantsCatchesCorruption corrupts, on a running network, each
// piece of state the copy-free flit path relies on: the due-cycle order of
// an in-flight queue (deliverFlits pops a due prefix), the inMask bit of a
// non-empty input queue, and a VC window's place in its packet; and the two
// credit counters the audit balances: a router's credits toward a link and
// an NI's credits toward its router. Audit must name each fault, and
// restoring the state must clear it. None of the faults moves a flit, so
// the census Audit returns beside each error must equal the clean one:
// counting goes on past the first violation.
func TestCheckInvariantsCatchesCorruption(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LinkLatency = 3 // several flits in flight per link
	net, err := New(cfg, routing.NewDOR(mesh.New(4, 4)), nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	var (
		queue  *fifo    // an input queue holding flits due on different cycles
		masked *router  // a router with flits in flight toward it
		window *inputVC // a VC buffering flits
	)
	for cyc := 0; queue == nil || masked == nil || window == nil; cyc++ {
		if cyc == 2000 {
			t.Fatal("no cycle with every kind of state to corrupt")
		}
		for src := 0; src < net.Nodes(); src++ {
			if rng.Float64() < 0.06 {
				net.Enqueue(src, (src+1+rng.Intn(net.Nodes()-1))%net.Nodes())
			}
		}
		net.Step()
		if _, err := net.Audit(nil); err != nil {
			t.Fatalf("cycle %d: %v", cyc, err)
		}
		queue, masked, window = nil, nil, nil
		for id, r := range net.routers {
			for p := 0; p < net.P; p++ {
				if q := &net.inbox[id*net.P+p]; q.n >= 2 && q.at(0).t < q.at(1).t {
					queue = q
				}
			}
			if r.inMask != 0 {
				masked = r
			}
			for b := range r.in {
				if r.in[b].n > 0 {
					window = &r.in[b]
				}
			}
		}
	}

	// Router 0's first output with a link behind it, and NI 0.
	r0 := net.routers[0]
	linkOut := &r0.out[slices.IndexFunc(r0.downstream, func(d int) bool { return d >= 0 })*cfg.VCs]
	niCredits := net.nis[0].credits
	clean, err := net.Audit(nil)
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name, want string
		corrupt    func()
	}{
		{"swap two due cycles", "due-cycle order", func() {
			a, b := queue.at(0), queue.at(1)
			a.t, b.t = b.t, a.t
		}},
		{"clear an inMask bit", "inMask", func() { masked.inMask &= masked.inMask - 1 }},
		{"push the window past its packet", "outside its packet", func() {
			window.seq = window.pkt.Length - window.n + 1
		}},
		{"lose a link credit", "credit leak on link 0->", func() { linkOut.credits-- }},
		{"mint an NI credit", "NI credit leak at node 0 vc 0", func() { niCredits[0]++ }},
	} {
		saved := struct {
			a, b           arrival
			mask           uint64
			window         inputVC
			link, niCredit int
		}{*queue.at(0), *queue.at(1), masked.inMask, *window, linkOut.credits, niCredits[0]}
		c.corrupt()
		census, err := net.Audit(nil)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Audit returned %v, want an error naming %q", c.name, err, c.want)
		}
		if !slices.Equal(census, clean) {
			t.Errorf("%s: census %+v beside the error, want the clean %+v", c.name, census, clean)
		}
		*queue.at(0), *queue.at(1), masked.inMask, *window = saved.a, saved.b, saved.mask, saved.window
		linkOut.credits, niCredits[0] = saved.link, saved.niCredit
		if _, err := net.Audit(nil); err != nil {
			t.Fatalf("%s: restored network still fails: %v", c.name, err)
		}
	}
}
