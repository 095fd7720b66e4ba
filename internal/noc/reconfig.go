package noc

import (
	"context"
	"fmt"
	"math/bits"

	"nocsprint/internal/routing"
)

// Network reconfiguration: the online repair path fault-driven sprinting
// needs. A reconfiguration quiesces the NIs, drains every flit out of the
// fabric under a bounded cycle budget, discards traffic that can no longer
// be delivered (accounted in Stats.PacketsDropped / FlitsDropped, never
// silently lost), applies the new active set, and resumes. The drained
// fabric is the key invariant: flipping a router dark can then never strand
// buffered flits or outstanding credits, so all structural invariants
// (credit conservation, wormhole atomicity) hold across the boundary and
// the runtime checker stays attached through repair.

// ReconfigReport summarises one completed reconfiguration.
type ReconfigReport struct {
	// Changed reports whether the active set actually changed; false means
	// the call hit the no-op fast path and stepped zero cycles.
	Changed bool
	// DrainCycles is how many cycles the quiesce-and-drain took.
	DrainCycles int64
	// PacketsDropped and FlitsDropped count the traffic discarded by this
	// reconfiguration: in-flight flits sunk at retiring nodes during the
	// drain, plus source-queued packets whose endpoint left the active set.
	PacketsDropped, FlitsDropped int64
}

// DrainWithBudgetCtx steps the network until it is drained — no packets
// alive anywhere — or the cycle budget is exhausted, in which case it stops
// and reports the stuck population instead of hanging. During a
// reconfiguration quiesce the target is weaker: the fabric (buffers, links,
// ejection and credit queues, mid-injection NIs) must empty, while source
// queues may keep packets held back by the quiesce. It is one RunUntil call:
// the drained condition is checked after each step, so a drain taking
// exactly maxCycles passes, and ctx is polled before each step, so a
// cancelled drain returns an error satisfying errors.Is(err, ctx.Err()). A
// nil ctx never cancels.
func (n *Network) DrainWithBudgetCtx(ctx context.Context, maxCycles int) error {
	drained, err := n.RunUntil(ctx, maxCycles, nil, func() bool {
		if n.quiesced {
			return n.fabricEmpty()
		}
		return n.Drained()
	})
	switch {
	case err != nil:
		return fmt.Errorf("noc: drain %w (%d packets in flight)", err, n.InFlight())
	case !drained:
		return fmt.Errorf("noc: network did not drain within %d cycles (%d packets in flight)",
			maxCycles, n.InFlight())
	}
	return nil
}

// fabricEmpty reports whether no flit or credit is buffered or in flight
// anywhere in the fabric and no NI is mid-packet. Source queues are
// ignored: under quiesce they legitimately hold packets.
func (n *Network) fabricEmpty() bool {
	for id, nic := range n.nis {
		r := n.routers[id]
		if nic.cur != nil || r.occupancy() != 0 || r.inMask != 0 || n.eject[id].n != 0 ||
			len(n.credbox[id]) != 0 || len(n.nicredbox[id]) != 0 {
			return false
		}
	}
	return true
}

// Reconfigure changes the set of powered routers mid-run: quiesce → drain →
// drop undeliverable traffic → apply the new active set (and, when alg is
// non-nil, the routing algorithm matching it, with the dateline VC classes
// of its routing.VCPolicy) → resume. An algorithm whose VC classes do not
// divide the VCs is rejected before anything drains, as NewTopo rejects
// it. drainBudget bounds the drain; on timeout the network is un-quiesced
// and an error returned — the simulation is left consistent (every flit
// still accounted) but the requested active set is not applied.
//
// Semantics of the fault model: traffic destined to a retiring node is
// dropped — in-flight flits traverse the fabric normally and are sunk at
// the dead NI, queued packets are discarded at the source. A packet
// mid-injection from a retiring node completes (drain-then-kill: the
// failed node's router participates in the drain; its core does not accept
// new work). Calling Reconfigure with the current active set is a no-op
// that steps zero cycles, so an untouched run and a run with a no-op
// reconfiguration are bit-identical.
//
// Reconfigure composes with the sprint region model, not with runtime
// traffic-driven gating: it returns an error when EnableRuntimeGating was
// used, since two independent owners of router power state cannot both be
// right about who is dark.
func (n *Network) Reconfigure(activeNodes []int, alg routing.Algorithm, drainBudget int) (ReconfigReport, error) {
	if n.gating != nil {
		return ReconfigReport{}, fmt.Errorf("noc: reconfiguration under runtime gating is not supported")
	}
	if len(activeNodes) == 0 {
		return ReconfigReport{}, fmt.Errorf("noc: reconfiguration needs at least one active node")
	}
	if drainBudget < 1 {
		return ReconfigReport{}, fmt.Errorf("noc: drain budget %d < 1", drainBudget)
	}
	rt := n.route
	if alg != nil {
		var err error
		if rt, err = newRoute(n.cfg, alg); err != nil {
			return ReconfigReport{}, err
		}
	}
	newSet := make([]bool, n.nodes)
	for _, id := range activeNodes {
		if id < 0 || id >= n.nodes {
			return ReconfigReport{}, fmt.Errorf("noc: active node %d outside topology", id)
		}
		newSet[id] = true
	}

	same := true
	for id, r := range n.routers {
		if r.active != newSet[id] {
			same = false
			break
		}
	}
	if same {
		// No-op fast path: nothing to quiesce, drain, or rebuild. The run
		// stays bit-identical to one that never reconfigured. VA requesters
		// take their VC partition from the algorithm now in force.
		if alg != nil {
			n.route = rt
			n.reconfigs++
			for _, r := range n.routers {
				for set := r.vaSet; set != 0; set &= set - 1 {
					v := &r.in[bits.TrailingZeros64(set)]
					v.vcLo = uint8(n.partitionLo(r.id, v.pkt))
				}
			}
		}
		return ReconfigReport{}, nil
	}

	// Retiring nodes stop consuming traffic the moment the fault is acted
	// on: flits reaching them during the drain are sunk as dropped.
	n.dropDst = make([]bool, n.nodes)
	for id, r := range n.routers {
		if r.active && !newSet[id] {
			n.dropDst[id] = true
		}
	}

	before := n.stats
	n.quiesced = true
	start := n.cycle
	if err := n.DrainWithBudgetCtx(nil, drainBudget); err != nil {
		// Leave the network consistent (still quiescable, every flit
		// accounted) but do not apply the new set: the caller decides
		// whether to retry with a larger budget or declare the repair
		// failed.
		n.quiesced = false
		n.dropDst = nil
		return ReconfigReport{}, fmt.Errorf("noc: reconfiguration: %w", err)
	}
	rep := ReconfigReport{Changed: true, DrainCycles: n.cycle - start}
	n.dropDst = nil

	// Drop source-queued packets that can no longer be delivered: their
	// source or destination leaves the active set.
	for _, nic := range n.nis {
		k := 0
		for _, pkt := range nic.queue {
			if newSet[pkt.Src] && newSet[pkt.Dst] {
				nic.queue[k] = pkt
				k++
				continue
			}
			n.stats.PacketsDropped++
			n.stats.FlitsDropped += int64(pkt.Length)
			n.classDropped[pkt.Class] += int64(pkt.Length)
			if n.probe != nil {
				// Probes count drops per flit; a source-queued packet
				// discards all of its flits at once.
				for s := 0; s < pkt.Length; s++ {
					n.probe.FlitEjected(n, pkt.Src, pkt, s == pkt.Length-1, true)
				}
			}
		}
		for i := k; i < len(nic.queue); i++ {
			nic.queue[i] = nil
		}
		nic.queue = nic.queue[:k]
	}

	// Apply the new active set. The fabric is empty, so flipping a router
	// dark cannot strand state, and a reactivated router resumes from the
	// reset-equivalent state the drain left behind (all credits home, all
	// VCs idle). Every router's power state is rewritten, so the next Audit
	// walks them all.
	n.activeCount = 0
	for id, r := range n.routers {
		r.active = newSet[id]
		n.nis[id].active = newSet[id]
		if newSet[id] {
			n.activeCount++
		}
	}
	n.markAllDirty()
	n.route = rt
	n.reconfigs++
	n.quiesced = false

	rep.PacketsDropped = n.stats.PacketsDropped - before.PacketsDropped
	rep.FlitsDropped = n.stats.FlitsDropped - before.FlitsDropped
	return rep, nil
}
