package noc

import (
	"fmt"
	"math/bits"

	"nocsprint/internal/topo"
)

// ClassCensus is the flit population of one message class, for conservation
// checks: Created == Ejected + Dropped + AtSource + InNetwork must hold at
// every cycle boundary.
type ClassCensus struct {
	// Created counts all flits of packets ever created in this class.
	Created int64
	// Ejected counts flits delivered to destination NIs.
	Ejected int64
	// Dropped counts flits discarded by reconfiguration: queued packets
	// whose endpoint went dark, and in-flight flits sunk at a retiring node.
	Dropped int64
	// AtSource counts flits still owed by source NIs: whole queued packets
	// plus the un-issued remainder of partially injected ones.
	AtSource int64
	// InNetwork counts flits in router buffers, in flight on links, or in
	// ejection queues.
	InNetwork int64
}

// Audit checks the simulator's structural invariants and takes the
// per-class flit census, at a cost that follows the work. It walks only
// the routers in the audit dirty set (state that may have changed since
// the last Audit) and the busy ones (the active-work set), and balances
// credits only on links with such a router at one end. Every other router
// gets a word-compare: its inMask, request sets, busy-VC count, ejection
// queue, credit boxes and NI show it holds nothing, so its census share is
// zero. A router that fails the word-compare is walked too, which reports
// it for holding work outside the active-work set. Audit allocates nothing
// once buf is large enough, because the invariant checker runs it every
// check.Config.Interval cycles and property tests every cycle.
//
// The census goes into buf, resized to one entry per message class, and is
// returned; pass the previous result back in to reuse it. The error is the
// first violation in walk order, or nil: the same one a walk over every
// router finds, because a skipped router, and each link out of it, has
// not changed since an audit that found nothing wrong. An audit that finds
// a violation leaves every router dirty, so the next one walks them all.
// The census is complete either way, so one audit can show both a
// structural fault and a census imbalance.
//
// Per router, the invariants are: every input VC holds at most the buffer
// depth, only flits of its own packet, none while the router is gated, and
// request bits in step with its state; busyVCs counts the VCs that are not
// idle; the allocator words (per-port request sets, free-output-VC word,
// holder table and credit-ready word) and each VA requester's VC partition
// are in step with the VC states, credits and routing; every in-flight queue is in due-cycle order, inMask marks
// exactly the non-empty input queues, and a router holding work is in the
// active-work set. The key invariant is credit conservation on every
// directed link and at every NI: the upstream credit counter, the flits
// buffered downstream, the flits in flight on the link, and the credits in
// flight back upstream always sum to the buffer depth. Network-wide, no
// more packets are ejected than injected, nor injected than created.
//
// One fault stays out of reach: a change to a router that marks it neither
// dirty nor busy and leaves only state the word-compare cannot see, such as
// flits in a VC of a router that counts no busy VC.
func (n *Network) Audit(buf []ClassCensus) ([]ClassCensus, error) {
	// The dirty set grows to the busy routers and every router failing the
	// word-compare. It must be complete before the walk, which reads it to
	// find the links to balance.
	for w, word := range n.work {
		n.dirty[w] |= word
	}
	for id, r := range n.routers {
		if !inSet(n.dirty, id) && (r.rcSet|r.vaSet|r.saSet != 0 || !n.routerIdle(id)) {
			n.markDirty(id)
		}
	}
	classes := n.cfg.classes()
	if cap(buf) < classes {
		buf = make([]ClassCensus, classes)
	}
	buf = buf[:classes]
	for c := range buf {
		buf[c] = ClassCensus{Created: n.classCreated[c], Ejected: n.classEjected[c], Dropped: n.classDropped[c]}
	}
	var err error
	var held [maxSlots]int // NewTopo caps ports x VCs at maxSlots
	for id, r := range n.routers {
		if !inSet(n.dirty, id) {
			// Unchanged since an audit that passed it, but its links into
			// dirty routers may no longer balance.
			if err == nil && r.active && n.feedsDirty(r) {
				err = n.auditCredits(id, held[:n.P*n.cfg.VCs])
			}
			continue
		}
		err = n.auditRouter(id, buf, err)
		if err == nil && r.active {
			err = n.auditCredits(id, held[:n.P*n.cfg.VCs])
		}
		if err == nil {
			err = n.auditWords(id)
		}
		if err == nil && !inSet(n.work, id) && !n.routerIdle(id) {
			err = fmt.Errorf("noc: router %d holds work outside the active-work set", id)
		}
	}
	if err == nil && n.stats.PacketsEjected > n.stats.PacketsInjected {
		err = fmt.Errorf("noc: ejected %d > injected %d", n.stats.PacketsEjected, n.stats.PacketsInjected)
	}
	if err == nil && n.stats.PacketsInjected > n.stats.PacketsCreated {
		err = fmt.Errorf("noc: injected %d > created %d", n.stats.PacketsInjected, n.stats.PacketsCreated)
	}
	if err != nil {
		n.markAllDirty()
	} else {
		clear(n.dirty)
	}
	return buf, err
}

// feedsDirty reports whether router r has a link to a router in the audit
// dirty set.
func (n *Network) feedsDirty(r *router) bool {
	for _, dst := range r.downstream[1:] { // skip Local
		if dst >= 0 && inSet(n.dirty, dst) {
			return true
		}
	}
	return false
}

// auditRouter adds the flits router id holds or has in flight toward it or
// its NI, and those its NI still owes, to cen. While err is nil it also
// checks the router's buffers, VC states, request sets, busy-VC count and
// in-flight queues, and returns the first violation; once err is set it
// only counts, and returns err.
func (n *Network) auditRouter(id int, cen []ClassCensus, err error) error {
	r, nic := n.routers[id], n.nis[id]
	for _, pkt := range nic.queue {
		cen[pkt.Class].AtSource += int64(pkt.Length)
	}
	if nic.cur != nil {
		cen[nic.cur.Class].AtSource += int64(nic.cur.Length - nic.curSeq)
	}
	// Buffer bounds, VC windows, VC state consistency, and request sets in
	// step with the VC states. A slot's (port, vc) is worked out only for
	// an error message.
	depth, nVC := n.cfg.BufferDepth, n.cfg.VCs
	busy := 0
	for b := range r.in {
		ivc := &r.in[b]
		if ivc.state != vcIdle {
			busy++
		}
		if ivc.n > 0 && ivc.pkt != nil {
			cen[ivc.pkt.Class].InNetwork += int64(ivc.n)
		}
		if err != nil {
			continue
		}
		switch {
		case ivc.n > depth:
			err = fmt.Errorf("noc: router %d port %d vc %d holds %d flits (depth %d)",
				id, b/nVC, b%nVC, ivc.n, depth)
		case ivc.n > 0 && (ivc.state == vcIdle || ivc.pkt == nil || ivc.seq+ivc.n > ivc.pkt.Length):
			err = fmt.Errorf("noc: router %d port %d vc %d in state %d holds flits %d..%d outside its packet",
				id, b/nVC, b%nVC, ivc.state, ivc.seq, ivc.seq+ivc.n-1)
		case !r.active && ivc.n > 0:
			err = fmt.Errorf("noc: gated router %d holds flits", id)
		default:
			// Bits 0, 1 and 2 stand for rcSet, vaSet and saSet.
			var want uint64
			switch {
			case ivc.state == vcRoute:
				want = 1
			case ivc.state == vcVA:
				want = 2
			case ivc.state == vcActive && ivc.n > 0:
				want = 4
			}
			got := r.rcSet>>b&1 | r.vaSet>>b&1<<1 | r.saSet>>b&1<<2
			switch {
			case got != want:
				err = fmt.Errorf("noc: router %d port %d vc %d in state %d with %d flits has request bits rc/va/sa %v, want %v",
					id, b/nVC, b%nVC, ivc.state, ivc.n, requestBits(got), requestBits(want))
			case ivc.state == vcVA && ivc.pkt != nil && int(ivc.vcLo) != n.partitionLo(id, ivc.pkt):
				err = fmt.Errorf("noc: router %d port %d vc %d requests VCs from %d, want %d",
					id, b/nVC, b%nVC, ivc.vcLo, n.partitionLo(id, ivc.pkt))
			case ivc.state == vcActive:
				if o := &r.out[ivc.outPort*nVC+ivc.outVC]; int(o.holder) != b {
					err = fmt.Errorf("noc: router %d port %d vc %d holds output %d vc %d, whose holder is slot %d",
						id, b/nVC, b%nVC, ivc.outPort, ivc.outVC, o.holder)
				}
			}
		}
	}
	// In-flight queues: due-cycle order (deliverFlits pops a due prefix)
	// and inMask marking exactly the non-empty input queues. Queue P is the
	// ejection queue toward the NI.
	for p := 0; p <= n.P; p++ {
		q := &n.eject[id]
		if p < n.P {
			q = &n.inbox[id*n.P+p]
			if err == nil && (r.inMask&(1<<uint(p)) != 0) != (q.n > 0) {
				err = fmt.Errorf("noc: router %d inMask %b disagrees with %d flits in flight to port %d",
					id, r.inMask, q.n, p)
			}
		}
		for i := 0; i < q.n; i++ {
			a := q.at(i)
			cen[a.f.pkt.Class].InNetwork++
			if err == nil && i > 0 && a.t < q.at(i-1).t {
				err = fmt.Errorf("noc: router %d queue %d out of due-cycle order: flit %d due %d after %d",
					id, p, i, a.t, q.at(i-1).t)
			}
		}
	}
	// The word-compare trusts busyVCs to show that no VC holds a packet.
	if err == nil && busy != r.busyVCs {
		err = fmt.Errorf("noc: router %d counts %d busy VCs, but %d are not idle", id, r.busyVCs, busy)
	}
	return err
}

// requestBits spells out a slot's membership of rcSet, vaSet and saSet
// (bits 0, 1 and 2 of set) for an error message.
func requestBits(set uint64) [3]bool { return [3]bool{set&1 != 0, set&2 != 0, set&4 != 0} }

// auditWords checks router id's allocator words against its VC states and
// credits: each per-port request set holds exactly the vaSet or saSet slots
// routed to that port; a free-VC bit is set exactly while its output VC
// names no holder and, off the Local port, holds every credit; and a ready
// bit is set exactly while its slot is in saSet and its output VC has a
// credit or is Local. (auditRouter's slot walk checks the rest: every
// active slot's output VC names it as holder, and every VA requester asks
// for the VC partition of the algorithm in force.) Audit runs it after the
// credit balance, so a lost or minted credit is reported as the leak it is,
// not as the stale word it leaves behind.
func (n *Network) auditWords(id int) error {
	r := n.routers[id]
	depth, nVC := n.cfg.BufferDepth, n.cfg.VCs
	var vaAll, saAll uint64
	for p := 0; p < n.P; p++ {
		va, sa := n.vaReq[id*n.P+p], n.saReq[id*n.P+p]
		vaAll, saAll = vaAll|va, saAll|sa
		for m := va | sa; m != 0; m &= m - 1 {
			if b := bits.TrailingZeros64(m); r.in[b].outPort != p {
				return fmt.Errorf("noc: router %d port %d vc %d, routed to port %d, is in port %d's request sets",
					id, b/nVC, b%nVC, r.in[b].outPort, p)
			}
		}
	}
	if vaAll != r.vaSet || saAll != r.saSet {
		return fmt.Errorf("noc: router %d per-port request sets hold va %#x sa %#x, want %#x %#x",
			id, vaAll, saAll, r.vaSet, r.saSet)
	}
	var free, ready uint64
	for s := range r.out {
		if o := &r.out[s]; o.holder == noSlot && (s < nVC || o.credits == depth) { // slots below nVC are Local's
			free |= 1 << uint(s)
		}
	}
	if free != n.freeVC[id] {
		return fmt.Errorf("noc: router %d free-VC word %#x, want %#x", id, n.freeVC[id], free)
	}
	for set := r.saSet; set != 0; set &= set - 1 {
		b := bits.TrailingZeros64(set)
		if v := &r.in[b]; v.outPort == topo.Local || r.out[v.outPort*nVC+v.outVC].credits > 0 {
			ready |= 1 << uint(b)
		}
	}
	if ready != n.ready[id] {
		return fmt.Errorf("noc: router %d credit-ready word %#x, want %#x", id, n.ready[id], ready)
	}
	return nil
}

// auditCredits checks credit conservation on powered router id's outgoing
// links with an end in the audit dirty set, then at its NI if id is dirty,
// using held as the (port, vc) table; a link or NI with no dirty end is
// unchanged since an audit that passed it. One pass over each credit source
// fills held[p*VCs+vc]; the comparisons then run in (port, vc) order. A
// credit or flit naming a (port, vc) outside the table counts toward no
// link, so a corrupt one is reported as a leak rather than a panic.
func (n *Network) auditCredits(id int, held []int) error {
	depth, nVC := n.cfg.BufferDepth, n.cfg.VCs
	r, self := n.routers[id], inSet(n.dirty, id)
	clear(held)
	for p := 1; p < n.P; p++ { // skip Local: uncredited
		dst := r.downstream[p]
		if dst < 0 || !(self || inSet(n.dirty, dst)) {
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
		if dst < 0 || !(self || inSet(n.dirty, dst)) {
			continue
		}
		for vc := 0; vc < nVC; vc++ {
			if sum := held[p*nVC+vc]; sum != depth {
				return fmt.Errorf("noc: credit leak on link %d->%d vc %d: sum %d != depth %d",
					id, dst, vc, sum, depth)
			}
		}
	}
	// NI-side credits toward the Local input port, in Local's row of held,
	// which the link check leaves unread.
	nic := n.nis[id]
	if !self || !r.active {
		return nil
	}
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
