package noc

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
