package noc

import (
	"fmt"

	"nocsprint/internal/topo"
)

// CheckInvariants verifies the simulator's structural invariants and
// returns the first violation found. It is O(network size) and intended for
// tests and debugging (property tests call it every cycle under random
// traffic), not for the hot path.
//
// The key invariant is credit conservation on every directed link: the
// upstream credit counter, the flits buffered downstream, the flits in
// flight on the link, and the credits in flight back upstream always sum to
// the buffer depth.
func (n *Network) CheckInvariants() error {
	depth, nVC := n.cfg.BufferDepth, n.cfg.VCs
	var buf [maxSlots]int // NewTopo caps ports x VCs at maxSlots
	held := buf[:n.P*nVC]
	for id, r := range n.routers {
		// Buffer bounds, VC windows, VC state consistency, and request sets
		// in step with the VC states.
		for b := range r.in {
			ivc := &r.in[b]
			p, v := b/n.cfg.VCs, b%n.cfg.VCs
			if ivc.n > depth {
				return fmt.Errorf("noc: router %d port %d vc %d holds %d flits (depth %d)",
					id, p, v, ivc.n, depth)
			}
			if ivc.n > 0 && (ivc.state == vcIdle || ivc.pkt == nil || ivc.seq+ivc.n > ivc.pkt.Length) {
				return fmt.Errorf("noc: router %d port %d vc %d in state %d holds flits %d..%d outside its packet",
					id, p, v, ivc.state, ivc.seq, ivc.seq+ivc.n-1)
			}
			if !r.active && ivc.n > 0 {
				return fmt.Errorf("noc: gated router %d holds flits", id)
			}
			bit := uint64(1) << uint(b)
			got := [3]bool{r.rcSet&bit != 0, r.vaSet&bit != 0, r.saSet&bit != 0}
			want := [3]bool{ivc.state == vcRoute, ivc.state == vcVA, ivc.state == vcActive && ivc.n > 0}
			if got != want {
				return fmt.Errorf("noc: router %d port %d vc %d in state %d with %d flits has request bits rc/va/sa %v, want %v",
					id, p, v, ivc.state, ivc.n, got, want)
			}
		}
		// In-flight queues: due-cycle order (deliverFlits pops a due
		// prefix) and inMask marking exactly the non-empty input queues.
		for p := 0; p <= n.P; p++ {
			q := &n.eject[id]
			if p < n.P {
				q = &n.inbox[id*n.P+p]
				if (r.inMask&(1<<uint(p)) != 0) != (q.n > 0) {
					return fmt.Errorf("noc: router %d inMask %b disagrees with %d flits in flight to port %d",
						id, r.inMask, q.n, p)
				}
			}
			for i := 1; i < q.n; i++ {
				if q.at(i).t < q.at(i-1).t {
					return fmt.Errorf("noc: router %d queue %d out of due-cycle order: flit %d due %d after %d",
						id, p, i, q.at(i).t, q.at(i-1).t)
				}
			}
		}
		if !r.active {
			continue
		}
		// Credit conservation per output (port, vc), then at the NI. One
		// pass over each credit source fills held[p*VCs+vc]; the
		// comparisons then run in (port, vc) order. A credit or flit naming
		// a (port, vc) outside the table counts toward no link, so a corrupt
		// one is reported as a leak rather than a panic.
		clear(held)
		for p := 1; p < n.P; p++ { // skip Local: uncredited
			dst := r.downstream[p]
			if dst < 0 {
				continue
			}
			inDir := n.opp[p]
			for vc := 0; vc < nVC; vc++ {
				held[p*nVC+vc] = r.out[p*nVC+vc].credits + n.routers[dst].in[inDir*nVC+vc].n
			}
			n.countInFlight(held[p*nVC:(p+1)*nVC], dst, inDir)
		}
		for _, ev := range n.credbox[id] {
			if ev.port > 0 && ev.port < n.P && ev.vc >= 0 && ev.vc < nVC {
				held[ev.port*nVC+ev.vc]++
			}
		}
		for p := 1; p < n.P; p++ {
			dst := r.downstream[p]
			if dst < 0 {
				continue
			}
			for vc := 0; vc < nVC; vc++ {
				if sum := held[p*nVC+vc]; sum != depth {
					return fmt.Errorf("noc: credit leak on link %d->%d vc %d: sum %d != depth %d",
						id, dst, vc, sum, depth)
				}
			}
		}
		// NI-side credits toward the Local input port, in Local's row of
		// held, which the link check leaves unread.
		nic := n.nis[id]
		if nic.active {
			local := held[topo.Local*nVC : (topo.Local+1)*nVC]
			for vc := range local {
				local[vc] = nic.credits[vc] + r.in[topo.Local*nVC+vc].n
			}
			n.countInFlight(local, id, topo.Local)
			for _, ev := range n.nicredbox[id] {
				if ev.vc >= 0 && ev.vc < nVC {
					local[ev.vc]++
				}
			}
			for vc, sum := range local {
				if sum != depth {
					return fmt.Errorf("noc: NI credit leak at node %d vc %d: sum %d != depth %d",
						id, vc, sum, depth)
				}
			}
		}
	}
	// Packet accounting.
	if n.stats.PacketsEjected > n.stats.PacketsInjected {
		return fmt.Errorf("noc: ejected %d > injected %d", n.stats.PacketsEjected, n.stats.PacketsInjected)
	}
	if n.stats.PacketsInjected > n.stats.PacketsCreated {
		return fmt.Errorf("noc: injected %d > created %d", n.stats.PacketsInjected, n.stats.PacketsCreated)
	}
	return nil
}

// countInFlight adds the flits in flight toward router id's input port p to
// held, indexed by VC.
func (n *Network) countInFlight(held []int, id, p int) {
	for q, i := &n.inbox[id*n.P+p], 0; i < q.n; i++ {
		if vc := int(q.at(i).f.vc); vc >= 0 && vc < len(held) {
			held[vc]++
		}
	}
}
