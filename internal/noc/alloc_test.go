package noc

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"nocsprint/internal/mesh"
	"nocsprint/internal/routing"
	"nocsprint/internal/topo"
)

// Differential allocator tests: one router's VC state is built by hand, one
// VA or SA pass runs on the optimized stepper and on the reference stepper,
// and the two must leave the router (VC states, out-VC picks, holders,
// credits, round-robin pointers, Events) and the network's event boxes
// identical.

// The router under test is the centre of a 3x3 mesh or of a 4x4 torus, so
// every port has a neighbour.
const (
	meshCentre  = 4
	torusCentre = 5
)

// allocNet builds an all-active 3x3 mesh (torus=false) or 4x4 torus with
// cfg's VCs and classes. The torus router carries two dateline VC classes.
func allocNet(t *testing.T, cfg Config, torus, reference bool) (*Network, *router) {
	t.Helper()
	full := DefaultConfig()
	full.VCs, full.Classes = cfg.VCs, cfg.Classes
	var (
		net *Network
		err error
		id  = meshCentre
	)
	if torus {
		tp, terr := topo.NewTorus(4, 4)
		if terr != nil {
			t.Fatal(terr)
		}
		net, err = NewTopo(full, tp, routing.NewTorusDOR(tp), nil)
		id = torusCentre
	} else {
		full.Width, full.Height = 3, 3
		net, err = New(full, routing.NewDOR(mesh.New(3, 3)), nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	net.UseReferenceStepper(reference)
	return net, net.routers[id]
}

// requestSets derives a router's request sets and busy-VC count from its
// VC states.
func requestSets(r *router) (rc, va, sa uint64, busy int) {
	for b := range r.in {
		v := &r.in[b]
		bit := uint64(1) << uint(b)
		switch {
		case v.state == vcRoute:
			rc |= bit
		case v.state == vcVA:
			va |= bit
		case v.state == vcActive && !v.empty():
			sa |= bit
		}
		if v.state != vcIdle {
			busy++
		}
	}
	return rc, va, sa, busy
}

// syncSets derives the request sets and the allocator words from the
// hand-built VC states and credits: the per-port request sets, the
// free-output-VC word, the holder table (each active slot's output VC names
// it; an output VC the test left unheld names noSlot), and the credit-ready
// word.
func syncSets(net *Network, r *router) {
	r.rcSet, r.vaSet, r.saSet, r.busyVCs = requestSets(r)
	nVC, depth := net.cfg.VCs, net.cfg.BufferDepth
	req := net.vaReq[r.id*net.P : (r.id+1)*net.P]
	sa := net.saReq[r.id*net.P : (r.id+1)*net.P]
	clear(req)
	clear(sa)
	net.freeVC[r.id], net.ready[r.id] = 0, 0
	for b := range r.in {
		v := &r.in[b]
		bit := uint64(1) << uint(b)
		switch {
		case r.vaSet&bit != 0:
			req[v.outPort] |= bit
			v.vcLo = uint8(net.partitionLo(r.id, v.pkt))
		case r.saSet&bit != 0:
			sa[v.outPort] |= bit
			if v.outPort == topo.Local || r.out[v.outPort*nVC+v.outVC].credits > 0 {
				net.ready[r.id] |= bit
			}
		}
		if v.state == vcActive {
			r.out[v.outPort*nVC+v.outVC].holder = uint8(b)
		}
	}
	for s := range r.out {
		if o := &r.out[s]; o.holder == noSlot && (s/nVC == topo.Local || o.credits == depth) {
			net.freeVC[r.id] |= 1 << uint(s)
		}
	}
}

// headFlit is the head of a fresh packet in class toward dst.
func headFlit(id int64, class, dst, length int) flit {
	typ := Head
	if length == 1 {
		typ = HeadTail
	}
	return flit{pkt: &Packet{ID: id, Dst: dst, Length: length, Class: class}, typ: typ}
}

// heldElsewhere is the holder a test names for an output VC held by a
// packet outside the state it builds: VA reads only whether a VC is held.
const heldElsewhere = 0

// fillVA builds a random VA pass: requesters routed to random ports with
// packets of their input VC's class, random output-VC occupancy and
// credits, and random pointers. Other slots are idle or in RC.
func fillVA(net *Network, r *router, rng *rand.Rand) {
	nVC, per := net.cfg.VCs, net.cfg.vcsPerClass()
	for b := range r.in {
		v := &r.in[b]
		switch rng.Intn(3) {
		case 0:
			continue
		case 1:
			v.state = vcRoute
		default:
			v.state = vcVA
			v.outPort = rng.Intn(net.P)
		}
		dst := rng.Intn(net.nodes)
		v.push(headFlit(int64(b), b%nVC/per, dst, net.cfg.PacketLength), net.cfg.BufferDepth)
	}
	for p := 0; p < net.P; p++ {
		for vc := 0; vc < nVC; vc++ {
			o := &r.out[p*nVC+vc]
			if rng.Intn(5) < 2 {
				o.holder = heldElsewhere
			}
			if rng.Intn(3) == 0 {
				o.credits = rng.Intn(net.cfg.BufferDepth)
			}
		}
		r.vaPtr[p] = rng.Intn(len(r.in))
		r.vaVCPtr[p] = rng.Intn(per)
	}
	syncSets(net, r)
}

// fillSA builds a random SA pass: slots hold output VCs with windows of
// 0..depth consecutive flits of their packet (possibly its head or tail), on
// random ports, with random credits and pointers. Each held output VC has
// one holder.
func fillSA(net *Network, r *router, rng *rand.Rand) {
	nVC, depth, length := net.cfg.VCs, net.cfg.BufferDepth, net.cfg.PacketLength
	for b := range r.in {
		v := &r.in[b]
		if rng.Intn(4) == 0 {
			continue
		}
		outPort, outVC := rng.Intn(net.P), rng.Intn(nVC)
		if r.out[outPort*nVC+outVC].holder != noSlot {
			continue
		}
		r.out[outPort*nVC+outVC].holder = uint8(b)
		v.state, v.outPort, v.outVC = vcActive, outPort, outVC
		v.pkt = &Packet{ID: int64(b), Dst: rng.Intn(net.nodes), Length: length, Class: b % nVC / net.cfg.vcsPerClass()}
		v.seq = rng.Intn(length)
		v.n = min(rng.Intn(depth+1), length-v.seq)
	}
	for p := 0; p < net.P; p++ {
		for vc := 0; vc < nVC; vc++ {
			r.out[p*nVC+vc].credits = rng.Intn(depth + 1)
		}
		r.saPtr[p] = rng.Intn(len(r.in))
	}
	syncSets(net, r)
}

// allocState is what one allocator pass may change.
type allocState struct {
	Router             router
	VAReq, SAReq       []uint64
	FreeVC, Ready      uint64
	Inbox, Eject       []fifo
	Credbox, Nicredbox [][]creditEvt
	Work               []uint64
}

func stateOf(net *Network, r *router) allocState {
	row := r.id * net.P
	return allocState{*r, net.vaReq[row : row+net.P], net.saReq[row : row+net.P], net.freeVC[r.id], net.ready[r.id],
		net.inbox, net.eject, net.credbox, net.nicredbox, net.work}
}

// diffPass builds the same router twice with fill, runs pass on the
// optimized and the reference stepper, reports any difference, and returns
// the optimized router.
func diffPass(t *testing.T, cfg Config, torus bool, fill func(*Network, *router), pass func(*Network, *router)) *router {
	t.Helper()
	nets := [2]*Network{}
	routers := [2]*router{}
	for i, reference := range []bool{false, true} {
		net, r := allocNet(t, cfg, torus, reference)
		fill(net, r)
		pass(net, r)
		rc, va, sa, busy := requestSets(r)
		if rc != r.rcSet || va != r.vaSet || sa != r.saSet || busy != r.busyVCs {
			t.Fatalf("reference=%t: request sets rc %x va %x sa %x busy %d out of step with VC states (want %x %x %x %d)",
				reference, r.rcSet, r.vaSet, r.saSet, r.busyVCs, rc, va, sa, busy)
		}
		if err := net.auditRouter(r.id, make([]ClassCensus, net.cfg.classes()), nil); err != nil {
			t.Fatalf("reference=%t: %v", reference, err)
		}
		if err := net.auditWords(r.id); err != nil {
			t.Fatalf("reference=%t: %v", reference, err)
		}
		nets[i], routers[i] = net, r
	}
	if o, rf := stateOf(nets[0], routers[0]), stateOf(nets[1], routers[1]); !reflect.DeepEqual(o, rf) {
		t.Errorf("optimized and reference passes differ:\noptimized: %+v\nreference: %+v", o, rf)
	}
	return routers[0]
}

var allocConfigs = []struct {
	cfg   Config
	torus bool
}{
	{Config{VCs: 4, Classes: 1}, false},
	{Config{VCs: 4, Classes: 2}, false},
	{Config{VCs: 8, Classes: 1}, false},
	{Config{VCs: 8, Classes: 2}, false},
	{Config{VCs: 12, Classes: 3}, false},
	{Config{VCs: 4, Classes: 1}, true},
	{Config{VCs: 8, Classes: 2}, true},
}

// TestVCAllocationDifferential compares random VA passes.
func TestVCAllocationDifferential(t *testing.T) {
	for _, c := range allocConfigs {
		for seed := int64(0); seed < 200; seed++ {
			t.Run(fmt.Sprintf("vcs%d-classes%d-torus%t-seed%d", c.cfg.VCs, c.cfg.Classes, c.torus, seed), func(t *testing.T) {
				fill := func(net *Network, r *router) { fillVA(net, r, rand.New(rand.NewSource(seed))) }
				diffPass(t, c.cfg, c.torus, fill, (*Network).vcAllocation)
			})
		}
	}
}

// TestSwitchAllocationDifferential compares random SA passes.
func TestSwitchAllocationDifferential(t *testing.T) {
	for _, c := range allocConfigs {
		for seed := int64(0); seed < 200; seed++ {
			t.Run(fmt.Sprintf("vcs%d-classes%d-torus%t-seed%d", c.cfg.VCs, c.cfg.Classes, c.torus, seed), func(t *testing.T) {
				fill := func(net *Network, r *router) { fillSA(net, r, rand.New(rand.NewSource(seed))) }
				diffPass(t, c.cfg, c.torus, fill, func(net *Network, r *router) { net.switchAllocation(7, r) })
			})
		}
	}
}

// TestVCAllocationRevisit pins the visiting order on a port whose walk
// revisits requesters. With 8 VCs in 2 classes the 40 slots have 8
// requesters for East at slots 11, 18, 23, 30, 31, 33, 34 and 37, each
// packet in its input VC's class; vaPtr is 23, East's four class-0 output
// VCs are free and its four class-1 VCs are held. The walk grants 33
// (step 10), 11 (step 17), 34 (step 22) and 18 (step 23), and the class-1
// requesters 23, 30 and 31 are visited twice.
func TestVCAllocationRevisit(t *testing.T) {
	east := int(mesh.East)
	requesters := []int{11, 18, 23, 30, 31, 33, 34, 37}
	fill := func(net *Network, r *router) {
		for _, b := range requesters {
			v := &r.in[b]
			v.state, v.outPort = vcVA, east
			v.push(headFlit(int64(b), b%8/4, 0, 5), 4)
		}
		for vc := 4; vc < 8; vc++ {
			r.out[east*8+vc].holder = heldElsewhere
		}
		r.vaPtr[east] = 23
		syncSets(net, r)
	}
	opt := diffPass(t, Config{VCs: 8, Classes: 2}, false, fill, (*Network).vcAllocation)
	for i, b := range []int{33, 11, 34, 18} {
		if v := &opt.in[b]; v.state != vcActive || v.outVC != i {
			t.Errorf("slot %d: state %d out VC %d, want granted VC %d", b, v.state, v.outVC, i)
		}
	}
	if got := opt.events.VAGrants; got != 4 {
		t.Errorf("%d VA grants, want 4", got)
	}
	if got := opt.vaPtr[east]; got != 19 {
		t.Errorf("East vaPtr %d, want 19", got)
	}
}
