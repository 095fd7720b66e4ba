package noc

import (
	"fmt"

	"nocsprint/internal/topo"
)

// vcState tracks an input VC through the router pipeline.
type vcState uint8

const (
	vcIdle   vcState = iota // no packet
	vcRoute                 // head flit buffered, awaiting route compute
	vcVA                    // route known, awaiting an output VC
	vcActive                // output VC held, flits competing for the switch
)

// inputVC is one virtual channel on one input port: a window onto the one
// packet that holds it, plus pipeline state. VC allocation is atomic, so the
// buffered flits are always flits seq .. seq+n-1 of pkt; pkt is nil while
// the VC is idle. outPort is a topology port index (topo.Local for eject).
// From route compute until its VA grant, vcLo is the first output VC of the
// partition the packet may take there (Network.partitionLo).
type inputVC struct {
	pkt     *Packet
	seq, n  int
	state   vcState
	vcLo    uint8
	outPort int
	outVC   int
}

func (v *inputVC) empty() bool { return v.n == 0 }

// push buffers f, which must open a packet in an idle VC or continue the
// VC's packet with its next flit.
func (v *inputVC) push(f flit, depth int) {
	switch {
	case v.n >= depth:
		panic("noc: VC buffer overflow — credit accounting broken")
	case v.pkt == nil && !f.typ.IsHead():
		panic("noc: body flit into idle VC — wormhole invariant broken")
	case v.pkt == nil:
		v.pkt, v.seq = f.pkt, int(f.seq)
	case f.pkt != v.pkt || int(f.seq) != v.seq+v.n:
		panic("noc: flit out of its VC's packet sequence — wormhole invariant broken")
	}
	v.n++
}

// pop removes and returns the oldest buffered flit.
func (v *inputVC) pop() flit {
	f := flit{pkt: v.pkt, seq: int32(v.seq), typ: flitType(v.seq, v.pkt.Length)}
	v.seq++
	v.n--
	return f
}

// outputVC mirrors one downstream input VC: which input slot's packet
// holds it, or noSlot while it is unoccupied, and how many downstream
// buffer slots remain (credits). r.out is the holder table the credit-ready
// word is kept through.
type outputVC struct {
	holder  uint8
	credits int
}

// noSlot is the holder of an unoccupied output VC: beyond every slot, so
// a request set shifted by it is empty.
const noSlot = maxSlots

// b2u is 1 for true and 0 for false, which the compiler emits without a
// branch.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Events counts the router micro-events the power model converts into
// dynamic energy.
type Events struct {
	// BufferWrites and BufferReads count flit buffer accesses.
	BufferWrites, BufferReads int64
	// XbarTraversals counts flits crossing the switch.
	XbarTraversals int64
	// LinkFlits counts flits leaving on inter-router links (not ejection).
	LinkFlits int64
	// SAGrants and VAGrants count allocator grant operations.
	SAGrants, VAGrants int64
}

// Add accumulates o into e.
func (e *Events) Add(o Events) {
	e.BufferWrites += o.BufferWrites
	e.BufferReads += o.BufferReads
	e.XbarTraversals += o.XbarTraversals
	e.LinkFlits += o.LinkFlits
	e.SAGrants += o.SAGrants
	e.VAGrants += o.VAGrants
}

// Sub returns e minus o (for measurement-window deltas).
func (e Events) Sub(o Events) Events {
	return Events{
		BufferWrites:   e.BufferWrites - o.BufferWrites,
		BufferReads:    e.BufferReads - o.BufferReads,
		XbarTraversals: e.XbarTraversals - o.XbarTraversals,
		LinkFlits:      e.LinkFlits - o.LinkFlits,
		SAGrants:       e.SAGrants - o.SAGrants,
		VAGrants:       e.VAGrants - o.VAGrants,
	}
}

// router is one NoC router: the topology's port count (Local plus one per
// link), each port with VCs. All per-port state is degree-parameterized, so
// the same router serves the mesh, the torus, and the circulant.
type router struct {
	id     int
	active bool
	// in holds the input VCs and out the output VCs, both flattened by slot
	// port*VCs+vc, the bit index of the request sets below.
	in  []inputVC
	out []outputVC
	// downstream[p] is the router id reached through output port p, or -1
	// for Local and absent links (mesh edges).
	downstream []int
	// Round-robin pointers: saPtr/vaPtr index the flattened (port,vc)
	// requester space per output port; vaVCPtr indexes output VCs.
	saPtr   []int
	vaPtr   []int
	vaVCPtr []int
	events  Events
	// busyVCs counts input VCs not in vcIdle (incremented when a head flit
	// claims a VC, decremented when its tail departs): the O(1) "any packet
	// mid-flight through this router?" test active-work pruning needs.
	busyVCs int
	// Request sets, one bit per input slot (NewTopo caps the slot count at
	// maxSlots): rcSet holds the slots in vcRoute, vaSet those in vcVA, and
	// saSet those in vcActive with a flit buffered. RC, VA and SA walk them
	// instead of every slot.
	rcSet, vaSet, saSet uint64
	// inMask has bit p set while flits are in flight toward input port p.
	inMask uint64
}

func newRouter(id int, cfg Config, tp topo.Topology, active bool) *router {
	P := tp.Ports()
	r := &router{
		id:         id,
		active:     active,
		in:         make([]inputVC, P*cfg.VCs),
		out:        make([]outputVC, P*cfg.VCs),
		downstream: make([]int, P),
		saPtr:      make([]int, P),
		vaPtr:      make([]int, P),
		vaVCPtr:    make([]int, P),
	}
	for o := range r.out {
		r.out[o] = outputVC{holder: noSlot, credits: cfg.BufferDepth}
	}
	for p := 0; p < P; p++ {
		r.downstream[p] = tp.Neighbor(id, p)
	}
	return r
}

// hasCredit reports whether output (p,vc) can accept a flit. Ejection
// (Local) is never back-pressured: the network interface consumes flits as
// they arrive.
func (r *router) hasCredit(p, vc, nVC int) bool {
	return p == topo.Local || r.out[p*nVC+vc].credits > 0
}

// occupancy returns the number of buffered flits across all input VCs,
// used by drain detection and conservation checks.
func (r *router) occupancy() int {
	n := 0
	for b := range r.in {
		n += r.in[b].n
	}
	return n
}

func (r *router) checkGated() {
	if !r.active {
		panic(fmt.Sprintf("noc: flit reached power-gated router %d — routing violated the sprint region", r.id))
	}
}
