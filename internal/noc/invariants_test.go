package noc

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"nocsprint/internal/routing"
	"nocsprint/internal/topo"
)

// TestCheckInvariantsCatchesCorruption corrupts, on a running network, each
// piece of state the copy-free flit path relies on: the due-cycle order of
// an in-flight queue (deliverFlits pops a due prefix), the inMask bit of a
// non-empty input queue, and a VC window's place in its packet; the two
// credit counters the audit balances: a router's credits toward a link and
// an NI's credits toward its router; an idle VC made to hold a flit with
// no packet; the busy-VC count the word-compare trusts; and each allocator
// word: a per-port SA request bit, a free-output-VC bit, a credit-ready
// bit and a held output VC's holder. Audit must name each fault, and
// restoring the state must clear it. Each corruption and each restore marks the router it touches
// dirty, as the exported corruption helpers do. None of the faults moves a
// flit of a packet, so the census Audit returns beside each error must
// equal the clean one: counting goes on past the first violation. The
// snapshot a violation carries must render the packetless flit.
func TestCheckInvariantsCatchesCorruption(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LinkLatency = 3 // several flits in flight per link
	net, err := New(cfg, routing.NewDOR(topo.NewMesh(4, 4)), nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	var (
		queue  *fifo    // an input queue holding flits due on different cycles
		masked *router  // a router with flits in flight toward it
		window *inputVC // a VC buffering flits
		// The routers the queue and the window belong to.
		queueID, windowID int
		// A switch requester: a router and a slot in its saSet.
		saID, saSlot = -1, -1
	)
	for cyc := 0; queue == nil || masked == nil || window == nil || saID < 0; cyc++ {
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
		queue, masked, window, saID = nil, nil, nil, -1
		for id, r := range net.routers {
			if r.saSet != 0 {
				saID, saSlot = id, bits.TrailingZeros64(r.saSet)
			}
			for p := 0; p < net.P; p++ {
				if q := &net.inbox[id*net.P+p]; q.n >= 2 && q.at(0).t < q.at(1).t {
					queue, queueID = q, id
				}
			}
			if r.inMask != 0 {
				masked = r
			}
			for b := range r.in {
				if r.in[b].n > 0 {
					window, windowID = &r.in[b], id
				}
			}
		}
	}

	// Router 0's first output with a link behind it, and NI 0.
	r0 := net.routers[0]
	linkOut := &r0.out[slices.IndexFunc(r0.downstream, func(d int) bool { return d >= 0 })*cfg.VCs]
	niCredits := net.nis[0].credits
	// An idle VC, to strand a flit in.
	strandID, strandSlot := -1, -1
	for id, r := range net.routers {
		if b := slices.IndexFunc(r.in, func(v inputVC) bool { return v.state == vcIdle && v.n == 0 }); b >= 0 {
			strandID, strandSlot = id, b
			break
		}
	}
	if strandID < 0 {
		t.Fatal("no idle VC")
	}
	stranded := &net.routers[strandID].in[strandSlot]
	strandPort, strandVC := strandSlot/cfg.VCs, strandSlot%cfg.VCs
	// The window's VC is not idle, so its router counts a busy VC.
	windowRouter := net.routers[windowID]
	busy := windowRouter.busyVCs
	// The switch requester's per-port SA set, its router's words, and the
	// output VC it holds.
	saRouter, saBit := net.routers[saID], uint64(1)<<uint(saSlot)
	saReq := &net.saReq[saID*net.P+saRouter.in[saSlot].outPort]
	heldOut := &saRouter.out[saRouter.in[saSlot].outPort*cfg.VCs+saRouter.in[saSlot].outVC]
	clean, err := net.Audit(nil)
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name, want string
		router     int // the router the corruption touches
		corrupt    func()
	}{
		{"swap two due cycles", "due-cycle order", queueID, func() {
			a, b := queue.at(0), queue.at(1)
			a.t, b.t = b.t, a.t
		}},
		{"clear an inMask bit", "inMask", masked.id, func() { masked.inMask &= masked.inMask - 1 }},
		{"push the window past its packet", "outside its packet", windowID, func() {
			window.seq = window.pkt.Length - window.n + 1
		}},
		{"lose a link credit", "credit leak on link 0->", 0, func() { linkOut.credits-- }},
		{"mint an NI credit", "NI credit leak at node 0 vc 0", 0, func() { niCredits[0]++ }},
		{"strand a flit with no packet", fmt.Sprintf("router %d port %d vc %d in state %d holds flits",
			strandID, strandPort, strandVC, vcActive), strandID, func() {
			stranded.n, stranded.state = 1, vcActive
		}},
		{"undercount busy VCs", fmt.Sprintf("router %d counts %d busy VCs, but %d are not idle",
			windowID, busy-1, busy), windowID, func() { windowRouter.busyVCs-- }},
		{"drop a per-port SA request bit", fmt.Sprintf("router %d per-port request sets", saID), saID,
			func() { *saReq &^= saBit }},
		{"flip a free-VC bit", "router 0 free-VC word", 0, func() { net.freeVC[0] ^= 1 }},
		{"flip a credit-ready bit", fmt.Sprintf("router %d credit-ready word", saID), saID,
			func() { net.ready[saID] ^= saBit }},
		{"name another holder", fmt.Sprintf("router %d port %d vc %d holds output", saID, saSlot/cfg.VCs, saSlot%cfg.VCs), saID,
			func() { heldOut.holder ^= 1 }},
	} {
		saved := struct {
			a, b                 arrival
			mask                 uint64
			window, stranded     inputVC
			link, niCredit, busy int
			saReq, free, ready   uint64
			held                 outputVC
		}{*queue.at(0), *queue.at(1), masked.inMask, *window, *stranded, linkOut.credits, niCredits[0], windowRouter.busyVCs,
			*saReq, net.freeVC[0], net.ready[saID], *heldOut}
		c.corrupt()
		net.markDirty(c.router)
		census, err := net.Audit(nil)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Audit returned %v, want an error naming %q", c.name, err, c.want)
		}
		if !slices.Equal(census, clean) {
			t.Errorf("%s: census %+v beside the error, want the clean %+v", c.name, census, clean)
		}
		if stranded.n == 1 {
			slot := fmt.Sprintf("in[%s][vc%d]: 1 flits, state %d", net.tp.PortName(strandPort), strandVC, vcActive)
			if snap := net.Snapshot(); !strings.Contains(snap, slot) || !strings.Contains(snap, "no packet") {
				t.Errorf("%s: snapshot does not show %q holding no packet:\n%s", c.name, slot, snap)
			}
		}
		*queue.at(0), *queue.at(1), masked.inMask, *window, *stranded = saved.a, saved.b, saved.mask, saved.window, saved.stranded
		linkOut.credits, niCredits[0], windowRouter.busyVCs = saved.link, saved.niCredit, saved.busy
		*saReq, net.freeVC[0], net.ready[saID], *heldOut = saved.saReq, saved.free, saved.ready, saved.held
		net.markDirty(c.router)
		if _, err := net.Audit(nil); err != nil {
			t.Fatalf("%s: restored network still fails: %v", c.name, err)
		}
	}
}
