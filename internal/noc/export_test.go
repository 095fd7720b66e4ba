package noc

// LoseLinkCredit drops one of router id's credits toward output (port, vc)
// without the downstream slot it stood for, the corruption Audit reports
// as a credit leak on that link.
func (n *Network) LoseLinkCredit(id, port, vc int) { n.routers[id].out[port*n.cfg.VCs+vc].credits-- }

// MintNICredit gives node's NI a credit toward its router's Local input VC
// vc with no buffer slot behind it, the corruption Audit reports as an NI
// credit leak.
func (n *Network) MintNICredit(node, vc int) { n.nis[node].credits[vc]++ }
