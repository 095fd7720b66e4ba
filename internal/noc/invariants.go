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
	depth := n.cfg.BufferDepth
	for id, r := range n.routers {
		// Buffer bounds, VC state consistency, and request sets in step
		// with the VC states.
		for b := range r.in {
			ivc := &r.in[b]
			p, v := b/n.cfg.VCs, b%n.cfg.VCs
			if len(ivc.buf) > depth {
				return fmt.Errorf("noc: router %d port %d vc %d holds %d flits (depth %d)",
					id, p, v, len(ivc.buf), depth)
			}
			if ivc.state == vcIdle && len(ivc.buf) > 0 {
				return fmt.Errorf("noc: router %d port %d vc %d idle with %d buffered flits",
					id, p, v, len(ivc.buf))
			}
			if !r.active && len(ivc.buf) > 0 {
				return fmt.Errorf("noc: gated router %d holds flits", id)
			}
			bit := uint64(1) << uint(b)
			got := [3]bool{r.rcSet&bit != 0, r.vaSet&bit != 0, r.saSet&bit != 0}
			want := [3]bool{ivc.state == vcRoute, ivc.state == vcVA, ivc.state == vcActive && len(ivc.buf) > 0}
			if got != want {
				return fmt.Errorf("noc: router %d port %d vc %d in state %d with %d flits has request bits rc/va/sa %v, want %v",
					id, p, v, ivc.state, len(ivc.buf), got, want)
			}
		}
		if !r.active {
			continue
		}
		// Credit conservation per output (port, vc).
		for p := 1; p < n.P; p++ { // skip Local: uncredited
			dst := r.downstream[p]
			if dst < 0 {
				continue
			}
			inDir := n.opp[p]
			for vc := 0; vc < n.cfg.VCs; vc++ {
				sum := r.out[p][vc].credits
				sum += len(n.routers[dst].in[inDir*n.cfg.VCs+vc].buf)
				for _, ev := range n.inbox[dst*n.P+inDir] {
					if ev.f.vc == vc {
						sum++
					}
				}
				for _, ev := range n.credbox[id] {
					if ev.port == p && ev.vc == vc {
						sum++
					}
				}
				if sum != depth {
					return fmt.Errorf("noc: credit leak on link %d->%d vc %d: sum %d != depth %d",
						id, dst, vc, sum, depth)
				}
			}
		}
		// NI-side credits toward the Local input port.
		nic := n.nis[id]
		if nic.active {
			for vc := 0; vc < n.cfg.VCs; vc++ {
				sum := nic.credits[vc]
				sum += len(r.in[topo.Local*n.cfg.VCs+vc].buf)
				for _, ev := range n.inbox[id*n.P+topo.Local] {
					if ev.f.vc == vc {
						sum++
					}
				}
				for _, ev := range n.nicredbox[id] {
					if ev.vc == vc {
						sum++
					}
				}
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
