package noc

import "math/bits"

// LoseLinkCredit drops one of router id's credits toward output (port, vc)
// without the downstream slot it stood for, the corruption Audit reports
// as a credit leak on that link. Like every corruption helper, it marks the
// router it touches dirty, so the next Audit inspects it.
func (n *Network) LoseLinkCredit(id, port, vc int) {
	n.routers[id].out[port*n.cfg.VCs+vc].credits--
	n.markDirty(id)
}

// MintNICredit gives node's NI a credit toward its router's Local input VC
// vc with no buffer slot behind it, the corruption Audit reports as an NI
// credit leak.
func (n *Network) MintNICredit(node, vc int) {
	n.nis[node].credits[vc]++
	n.markDirty(node)
}

// StrandFlit makes router id's input (port, vc) hold one flit with no
// packet behind it, in state vcActive: the fault Audit reports as flits
// outside their packet.
func (n *Network) StrandFlit(id, port, vc int) {
	v := &n.routers[id].in[port*n.cfg.VCs+vc]
	v.n, v.state = 1, vcActive
	n.markDirty(id)
}

// StageNames names the stages StepStages times, in order.
var StageNames = [...]string{"credits", "SA", "VA+RC", "buffer-write", "injection", "tail"}

// StepStages is Step with lap called after each stage, numbered as in
// StageNames: credit delivery, switch allocation with traversal, VC
// allocation and route compute, buffer write with ejection, injection, and
// the tail (gating, dirty set, probe cycle end). It calls Step's stage
// methods in Step's order, each over its own work set, but runs SA for
// every router in the allocation work set before VA and RC run for any, so
// each stage can be timed on its own. That is exact for the reason the
// fused pass is: each of the three reads only its own router's state, dates
// everything it sends to a later cycle and calls no probe, and SA changes
// no router's allocation work set bit. TestStepStagesMatchStep holds it to
// Step.
func (n *Network) StepStages(lap func(stage int)) {
	now := n.cycle
	n.deliverCredits()
	lap(0)
	for w := range n.allocWork {
		for word := n.stageWord(n.allocWork, w); word != 0; word &= word - 1 {
			if r := n.routers[w<<6|bits.TrailingZeros64(word)]; r.active && n.powered(r.id) {
				n.switchAllocation(now, r)
			}
		}
	}
	lap(1)
	for w := range n.allocWork {
		for word := n.stageWord(n.allocWork, w); word != 0; word &= word - 1 {
			r := n.routers[w<<6|bits.TrailingZeros64(word)]
			if r.active && n.powered(r.id) {
				n.vcAllocation(r)
				n.routeCompute(r)
			}
			if n.allocIdle(r) {
				n.allocWork[w] &^= word & -word
			}
		}
	}
	lap(2)
	n.deliverFlits(now)
	lap(3)
	n.inject(now)
	lap(4)
	n.endCycle(now)
	lap(5)
}
