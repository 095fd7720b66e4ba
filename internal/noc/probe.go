package noc

import (
	"fmt"
	"strings"
)

// Probe observes simulator events: the runtime invariant checker
// (internal/check) and the telemetry collector (internal/obs) both attach
// through it. All hooks run synchronously inside Step and must not mutate
// the network (Audit, which updates only its own dirty set, may run from
// CycleEnd); with no probe attached each event costs one pointer
// comparison, so the hot path is unaffected when probing is off. Ports are
// topology port indices (topo.Local = 0 for the NI side).
type Probe interface {
	// FlitArrived fires when a flit is written into router's input buffer on
	// port from. Arrivals on the Local port are injections from the node's
	// own NI; any other port means the flit traversed the link from the
	// neighbour Topo().Neighbor(router, from), i.e. it left that neighbour
	// through port Topo().Opposite(from).
	FlitArrived(n *Network, router, from int, pkt *Packet, typ FlitType, vc int)
	// FlitInjected fires when the NI at node issues flit seq of pkt toward
	// its router's Local input port (seq 0 marks a new packet entering).
	FlitInjected(n *Network, node int, pkt *Packet, seq int)
	// FlitEjected fires when a flit of pkt leaves the network at node; tail
	// marks packet completion. dropped reports a reconfiguration drop
	// instead of a delivery: either a flit black-holed at a retiring
	// destination, or (node == pkt.Src, pkt.InjectedAt == -1) one flit of a
	// source-queued packet discarded before it was ever injected.
	FlitEjected(n *Network, node int, pkt *Packet, tail, dropped bool)
	// CreditDelivered fires when a credit lands back at router's output
	// (port, vc); credits is the counter value after the increment. Port
	// Local denotes the NI-side credits of node router.
	CreditDelivered(n *Network, router, port, vc, credits int)
	// CycleEnd fires at the end of every Step, after all pipeline stages.
	CycleEnd(n *Network, cycle int64)
}

// SetProbe attaches probes, replacing whatever was attached before; with no
// arguments it detaches them all. Several probes are called in argument
// order through an allocation-free fan-out. Probes are purely
// observational: attaching any never changes simulation results.
func (n *Network) SetProbe(ps ...Probe) {
	switch len(ps) {
	case 0:
		n.probe = nil
	case 1:
		n.probe = ps[0]
	default:
		n.probe = fanout(append([]Probe(nil), ps...))
	}
}

// fanout calls every probe in order.
type fanout []Probe

func (f fanout) FlitArrived(n *Network, router, from int, pkt *Packet, typ FlitType, vc int) {
	for _, p := range f {
		p.FlitArrived(n, router, from, pkt, typ, vc)
	}
}

func (f fanout) FlitInjected(n *Network, node int, pkt *Packet, seq int) {
	for _, p := range f {
		p.FlitInjected(n, node, pkt, seq)
	}
}

func (f fanout) FlitEjected(n *Network, node int, pkt *Packet, tail, dropped bool) {
	for _, p := range f {
		p.FlitEjected(n, node, pkt, tail, dropped)
	}
}

func (f fanout) CreditDelivered(n *Network, router, port, vc, credits int) {
	for _, p := range f {
		p.CreditDelivered(n, router, port, vc, credits)
	}
}

func (f fanout) CycleEnd(n *Network, cycle int64) {
	for _, p := range f {
		p.CycleEnd(n, cycle)
	}
}

// BufferedFlits returns the number of flits currently held in the input
// buffers of powered routers. It is O(routers), allocation-free, and meant
// for sample-boundary polling (queue-depth telemetry), not the per-cycle hot
// path.
func (n *Network) BufferedFlits() int64 {
	var total int64
	for _, r := range n.routers {
		if r.active {
			total += int64(r.occupancy())
		}
	}
	return total
}

// RouterActive reports whether router id is statically powered (inside the
// sprint region the network was built with). Runtime gating (gating.go) is a
// separate, dynamic notion.
func (n *Network) RouterActive(id int) bool { return n.routers[id].active }

// Snapshot renders a human-readable dump of the network state: per-router
// buffer occupancy, VC pipeline states, output credits, in-flight link and
// credit traffic, and NI queues. Invariant violations attach it to their
// report so a failing sweep point can be diagnosed post mortem.
func (n *Network) Snapshot() string {
	var b strings.Builder
	fmt.Fprintf(&b, "network snapshot at cycle %d: %s, %d VCs x depth %d, %d classes\n",
		n.cycle, n.tp.Name(), n.cfg.VCs, n.cfg.BufferDepth, n.cfg.classes())
	s := n.Stats()
	fmt.Fprintf(&b, "packets: created %d injected %d ejected %d dropped %d (in flight %d); flits: injected %d ejected %d dropped %d\n",
		s.PacketsCreated, s.PacketsInjected, s.PacketsEjected, s.PacketsDropped, n.InFlight(),
		s.FlitsInjected, s.FlitsEjected, s.FlitsDropped)
	for id, r := range n.routers {
		nic := n.nis[id]
		inflight := 0
		for p := 0; p < n.P; p++ {
			inflight += n.inbox[id*n.P+p].n
		}
		if !r.active {
			if inflight > 0 {
				fmt.Fprintf(&b, "router %2d %v: GATED with %d flits in flight toward it\n",
					id, n.tp.Label(id), inflight)
			}
			continue
		}
		fmt.Fprintf(&b, "router %2d %v: buffered %d, inbound %d, eject-queue %d, NI queue %d",
			id, n.tp.Label(id), r.occupancy(), inflight, n.eject[id].n, len(nic.queue))
		if nic.cur != nil {
			fmt.Fprintf(&b, ", injecting pkt %d flit %d/%d", nic.cur.ID, nic.curSeq, nic.cur.Length)
		}
		b.WriteByte('\n')
		for p := 0; p < n.P; p++ {
			for v := 0; v < n.cfg.VCs; v++ {
				ivc := &r.in[p*n.cfg.VCs+v]
				if ivc.state == vcIdle && ivc.n == 0 {
					continue
				}
				desc := ""
				switch {
				case ivc.n > 0 && ivc.pkt == nil: // a fault Audit reports
					desc = " head=no packet"
				case ivc.n > 0:
					desc = fmt.Sprintf(" head=pkt %d (%d->%d, %v)",
						ivc.pkt.ID, ivc.pkt.Src, ivc.pkt.Dst, flitType(ivc.seq, ivc.pkt.Length))
				}
				fmt.Fprintf(&b, "  in[%v][vc%d]: %d flits, state %d -> out %v vc %d%s\n",
					n.tp.PortName(p), v, ivc.n, ivc.state, n.tp.PortName(ivc.outPort), ivc.outVC, desc)
			}
			for v := 0; v < n.cfg.VCs; v++ {
				o := &r.out[p*n.cfg.VCs+v]
				if !o.occupied && o.credits == n.cfg.BufferDepth {
					continue
				}
				fmt.Fprintf(&b, "  out[%v][vc%d]: occupied %v, credits %d/%d\n",
					n.tp.PortName(p), v, o.occupied, o.credits, n.cfg.BufferDepth)
			}
		}
	}
	return b.String()
}
