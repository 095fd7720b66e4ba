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

// inputVC is one virtual channel on one input port: a flit FIFO plus
// pipeline state. outPort is a topology port index (topo.Local for eject).
type inputVC struct {
	buf     []flit
	state   vcState
	outPort int
	outVC   int
}

func (v *inputVC) empty() bool { return len(v.buf) == 0 }

func (v *inputVC) push(f flit, depth int) {
	if len(v.buf) >= depth {
		panic("noc: VC buffer overflow — credit accounting broken")
	}
	v.buf = append(v.buf, f)
}

func (v *inputVC) pop() flit {
	f := v.buf[0]
	copy(v.buf, v.buf[1:])
	v.buf = v.buf[:len(v.buf)-1]
	return f
}

// outputVC mirrors one downstream input VC: whether some packet currently
// holds it, and how many downstream buffer slots remain (credits).
type outputVC struct {
	occupied bool
	credits  int
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
	// in holds the input VCs flattened by slot port*VCs+vc, the bit index of
	// the request sets below.
	in  []inputVC
	out [][]outputVC
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
}

func newRouter(id int, cfg Config, tp topo.Topology, active bool) *router {
	P := tp.Ports()
	r := &router{
		id:         id,
		active:     active,
		in:         make([]inputVC, P*cfg.VCs),
		out:        make([][]outputVC, P),
		downstream: make([]int, P),
		saPtr:      make([]int, P),
		vaPtr:      make([]int, P),
		vaVCPtr:    make([]int, P),
	}
	for b := range r.in {
		r.in[b].buf = make([]flit, 0, cfg.BufferDepth)
	}
	for p := 0; p < P; p++ {
		r.out[p] = make([]outputVC, cfg.VCs)
		for v := range r.out[p] {
			r.out[p][v].credits = cfg.BufferDepth
		}
		r.downstream[p] = tp.Neighbor(id, p)
	}
	return r
}

// hasCredit reports whether output (port,vc) can accept a flit. Ejection
// (Local) is never back-pressured: the network interface consumes flits as
// they arrive.
func (r *router) hasCredit(p, vc int) bool {
	if p == topo.Local {
		return true
	}
	return r.out[p][vc].credits > 0
}

// occupancy returns the number of buffered flits across all input VCs,
// used by drain detection and conservation checks.
func (r *router) occupancy() int {
	n := 0
	for b := range r.in {
		n += len(r.in[b].buf)
	}
	return n
}

func (r *router) checkGated() {
	if !r.active {
		panic(fmt.Sprintf("noc: flit reached power-gated router %d — routing violated the sprint region", r.id))
	}
}
