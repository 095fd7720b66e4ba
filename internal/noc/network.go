package noc

import (
	"context"
	"fmt"
	"math/bits"

	"nocsprint/internal/routing"
	"nocsprint/internal/topo"
)

// arrival is a flit in flight on a link, due at cycle t.
type arrival struct {
	f flit
	t int64
}

// fifo is a FIFO ring of flits in flight toward one input port or one NI.
// Each ring has a single feeder with a fixed delay (one link, the NI, or the
// Local output) that sends at most one flit per cycle, so flits arrive in
// due-cycle order and those due by any cycle are a prefix. buf is allocated on the first push and doubled when
// full; credits bound the occupancy, so steady state allocates nothing.
type fifo struct {
	buf     []arrival // empty or a power-of-two length
	head, n int
}

// at returns the i-th oldest flit of the queue.
func (q *fifo) at(i int) *arrival { return &q.buf[(q.head+i)&(len(q.buf)-1)] }

func (q *fifo) push(a arrival) {
	if q.n == len(q.buf) {
		grown := make([]arrival, max(4, 2*len(q.buf)))
		for i := range q.n {
			grown[i] = *q.at(i)
		}
		q.buf, q.head = grown, 0
	}
	q.n++
	*q.at(q.n - 1) = a
}

func (q *fifo) pop() {
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
}

// creditEvt is a credit in flight back to an upstream output (port,vc). It
// is sent by switch allocation and lands in the next cycle's first stage.
type creditEvt struct{ port, vc int }

// Stats summarises network activity. Counter fields are monotonic; take a
// snapshot before and after a measurement window and subtract.
type Stats struct {
	// Cycles is the number of simulated cycles.
	Cycles int64
	// PacketsCreated/Injected/Ejected count packet lifecycle milestones.
	PacketsCreated, PacketsInjected, PacketsEjected int64
	// FlitsInjected and FlitsEjected count flits entering/leaving the
	// network fabric.
	FlitsInjected, FlitsEjected int64
	// PacketsDropped and FlitsDropped count traffic discarded by
	// reconfiguration (Reconfigure): source-queued packets whose endpoint
	// left the active set, and in-flight flits delivered to a node being
	// retired. Dropped traffic is terminal — it leaves InFlight and is a
	// separate census bucket, never silently lost.
	PacketsDropped, FlitsDropped int64
	// MeasuredCreated and MeasuredEjected count packets created inside the
	// measurement window and their completions.
	MeasuredCreated, MeasuredEjected int64
	// LatencySum accumulates (ejection - creation) over measured packets:
	// total packet latency including source queueing.
	LatencySum int64
	// NetLatencySum accumulates (ejection - injection) over measured
	// packets: in-network latency only.
	NetLatencySum int64
	// Events aggregates router micro-events network-wide.
	Events Events
}

// AvgLatency returns mean measured packet latency (cycles) including source
// queueing, or 0 with ok=false if nothing was measured.
func (s Stats) AvgLatency() (float64, bool) {
	if s.MeasuredEjected == 0 {
		return 0, false
	}
	return float64(s.LatencySum) / float64(s.MeasuredEjected), true
}

// Sub returns the counter deltas s - o.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Cycles:          s.Cycles - o.Cycles,
		PacketsCreated:  s.PacketsCreated - o.PacketsCreated,
		PacketsInjected: s.PacketsInjected - o.PacketsInjected,
		PacketsEjected:  s.PacketsEjected - o.PacketsEjected,
		FlitsInjected:   s.FlitsInjected - o.FlitsInjected,
		FlitsEjected:    s.FlitsEjected - o.FlitsEjected,
		PacketsDropped:  s.PacketsDropped - o.PacketsDropped,
		FlitsDropped:    s.FlitsDropped - o.FlitsDropped,
		MeasuredCreated: s.MeasuredCreated - o.MeasuredCreated,
		MeasuredEjected: s.MeasuredEjected - o.MeasuredEjected,
		LatencySum:      s.LatencySum - o.LatencySum,
		NetLatencySum:   s.NetLatencySum - o.NetLatencySum,
		Events:          s.Events.Sub(o.Events),
	}
}

// ni is the network interface at an active node: an unbounded source queue
// feeding the router's Local input port, plus the ejection sink.
type ni struct {
	queue   []*Packet
	cur     *Packet // packet currently being injected
	curSeq  int
	curVC   int
	credits []int // credits toward the router's Local input VCs
}

// Network is a simulated NoC over an arbitrary topology (mesh, torus, ring
// circulant — anything implementing topo.Topology). Construct with New (2D
// mesh) or NewTopo, drive with Step, inject with Enqueue. All per-port state
// is sized by the topology's port degree, so every fabric pays exactly its
// own radix, and the mesh path is bit-identical to the pre-topology
// simulator.
type Network struct {
	cfg Config
	tp  topo.Topology
	// P caches tp.Ports(), nodes caches tp.Nodes(), opp[p] caches
	// tp.Opposite(p): the hot path reads slices and ints only, never
	// interface methods.
	P     int
	nodes int
	opp   []int
	// route is the routing algorithm and its VC policy, installed only
	// through newRoute.
	route
	routers []*router
	// inbox[id*P+p] holds flits in flight toward router id's input port p
	// (flattened per-port rings, degree-parameterized).
	inbox []fifo
	// credbox[r] holds credits in flight back to router r's outputs.
	credbox [][]creditEvt
	// nicredbox[r] holds credits (freed Local-input slots) flowing back to
	// NI r, encoded in creditEvt with port Local.
	nicredbox [][]creditEvt
	// eject[r] holds flits in flight from router r's Local output to NI r.
	eject []fifo
	nis   []*ni

	cycle        int64
	measuring    bool
	nextPacketID int64
	stats        Stats
	// bufferMoves counts buffer writes and reads network-wide: the sum of
	// every router's Events.BufferWrites and BufferReads, kept here so
	// Progress needs no sum over the routers.
	bufferMoves int64
	// Runtime power gating (nil when disabled; see gating.go).
	gating []gatingState
	// sink, when set, receives every packet at tail ejection (closed-loop
	// protocol models hook here).
	sink func(*Packet)
	// linkLat holds the latency of every directed link, indexed id*P+port
	// and seeded uniformly from cfg.LinkLatency; a dense slice so the
	// switch-traversal hot path pays one array read, not a map lookup.
	// SetLinkLatency overrides individual links to model the longer physical
	// wires a thermal-aware floorplan creates (§3.3) — and, when left
	// uniform, the SMART repeated wires that traverse them in one cycle.
	linkLat []int
	// Active-work scheduling: Step visits only routers that can have work
	// this cycle, so a dark-dominated mesh costs O(active region), not
	// O(mesh). work is a bitset of those router ids; visiting its bits in
	// ascending order matches the full scan's iteration order, which keeps
	// results and checker event streams bit-identical. Every event append
	// (flit, credit, ejection, source enqueue) marks its destination busy;
	// routers whose state has fully drained are pruned at the end of each
	// Step. sweepBuf is the per-cycle snapshot the stages iterate, so
	// markBusy during a cycle never changes the routers a Step visits.
	work     []uint64
	sweepBuf []int
	// dirty is the audit dirty set: a bitset of the routers whose state may
	// have changed since the last Audit. Each Step ORs in its work set
	// before pruning it, which holds every router the Step visited and every
	// router something was sent to; Enqueue, Reconfigure and the test-only
	// corruption helpers mark the routers they touch. Audit re-walks these
	// and the busy routers, then clears the set (see invariants.go). It
	// starts full, so the first Audit walks every router.
	dirty []uint64
	// allIDs enumerates every router; scanAll (the reference stepper, see
	// UseReferenceStepper) makes the stages visit them all, reproducing the
	// pre-optimization full-scan pipeline.
	allIDs  []int
	scanAll bool
	// activeCount caches the powered-router population; maintained by New
	// and Reconfigure instead of rescanning all routers on every
	// ActiveRouters call (the fault driver polls it every cycle).
	activeCount int
	// The allocator words, one bit per slot, kept by the state transitions
	// so each allocator decision is one masked nextSlot (see DESIGN §10).
	// vaReq[id*P+p] and saReq[id*P+p] hold the slots of router id's vaSet
	// and saSet routed to output port p. freeVC[id] has bit p*VCs+vc set
	// while output VC (p, vc) is unoccupied and, off the Local port, holds
	// every credit. ready[id] holds the saSet slots whose output VC has a
	// credit or is Local. Network-wide arrays indexed by router, like
	// inbox, so a router's build allocates nothing for them.
	vaReq, saReq  []uint64
	freeVC, ready []uint64
	// Division-free slot arithmetic, fixed at construction: slotPort[b] and
	// slotVC[b] are slot b's port and VC, portMask[p] holds port p's slots,
	// and perClass is the VC count of a message class. allClasses has one
	// bit per message class.
	slotPort, slotVC [maxSlots]uint8
	portMask         [maxSlots]uint64
	perClass         int
	allClasses       uint64
	// probe, when non-nil, observes simulator events (see probe.go).
	probe Probe
	// classCreated/classEjected/classDropped count flits per message class
	// for conservation checking (indexed by Packet.Class).
	classCreated, classEjected, classDropped []int64
	// quiesced suspends new packet starts at every NI while a
	// reconfiguration drains the fabric (see reconfig.go). Queued packets
	// stay queued; a packet mid-injection finishes normally.
	quiesced bool
	// dropDst, during a reconfiguration drain, marks nodes being retired:
	// flits ejecting there are counted dropped (the dead node cannot
	// consume them) instead of delivered. Nil outside reconfiguration.
	dropDst []bool
	// reconfigs counts the Reconfigure calls that changed the active set
	// or installed a routing algorithm.
	reconfigs int64
}

// New builds a network over cfg's 2D mesh using routing algorithm alg.
// activeNodes lists the powered routers (with NIs); nil means all nodes are
// active (full-sprinting). Gated routers hold no state and the simulator
// panics if routing ever sends a flit into one.
func New(cfg Config, alg routing.Algorithm, activeNodes []int) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return NewTopo(cfg, topo.NewMesh(cfg.Width, cfg.Height), alg, activeNodes)
}

// maxSlots bounds a router's input VCs (ports x VCs): the allocators keep
// one bit per input VC in a uint64 request set.
const maxSlots = 64

// NewTopo builds a network over an arbitrary topology. cfg's Width/Height
// are ignored (the topology defines the node set); the fabric parameters
// (VCs, buffers, packet length, link latency, classes) are validated as in
// New, and ports x VCs may not exceed 64. When alg implements
// routing.VCPolicy, each message class's VC partition is further subdivided
// among the policy's route classes (dateline escape VCs), so VCs must be
// divisible by Classes x VCClasses.
func NewTopo(cfg Config, tp topo.Topology, alg routing.Algorithm, activeNodes []int) (*Network, error) {
	if tp == nil {
		return nil, fmt.Errorf("noc: nil topology")
	}
	if err := cfg.validateFabric(); err != nil {
		return nil, err
	}
	nodes, P := tp.Nodes(), tp.Ports()
	if P*cfg.VCs > maxSlots {
		return nil, fmt.Errorf("noc: %d ports x %d VCs = %d input VCs per router, more than the allocators' %d",
			P, cfg.VCs, P*cfg.VCs, maxSlots)
	}
	activeSet := make([]bool, nodes)
	if activeNodes == nil {
		for i := range activeSet {
			activeSet[i] = true
		}
	} else {
		for _, id := range activeNodes {
			if id < 0 || id >= nodes {
				return nil, fmt.Errorf("noc: active node %d outside %s", id, tp.Name())
			}
			activeSet[id] = true
		}
	}
	rt, err := newRoute(cfg, alg)
	if err != nil {
		return nil, err
	}
	n := &Network{
		cfg:       cfg,
		tp:        tp,
		P:         P,
		nodes:     nodes,
		opp:       make([]int, P),
		route:     rt,
		routers:   make([]*router, nodes),
		inbox:     make([]fifo, nodes*P),
		credbox:   make([][]creditEvt, nodes),
		nicredbox: make([][]creditEvt, nodes),
		eject:     make([]fifo, nodes),
		nis:       make([]*ni, nodes),

		linkLat:  make([]int, nodes*P),
		work:     make([]uint64, (nodes+63)/64),
		dirty:    make([]uint64, (nodes+63)/64),
		sweepBuf: make([]int, 0, nodes),
		allIDs:   make([]int, nodes),

		vaReq:  make([]uint64, nodes*P),
		saReq:  make([]uint64, nodes*P),
		freeVC: make([]uint64, nodes),
		ready:  make([]uint64, nodes),

		perClass:   cfg.vcsPerClass(),
		allClasses: 1<<uint(cfg.classes()) - 1,

		classCreated: make([]int64, cfg.classes()),
		classEjected: make([]int64, cfg.classes()),
		classDropped: make([]int64, cfg.classes()),
	}
	for p := 0; p < P; p++ {
		n.opp[p] = tp.Opposite(p)
		n.portMask[p] = (1<<uint(cfg.VCs) - 1) << uint(p*cfg.VCs)
	}
	for b := 0; b < P*cfg.VCs; b++ {
		n.slotPort[b], n.slotVC[b] = uint8(b/cfg.VCs), uint8(b%cfg.VCs)
	}
	// Every output VC starts unoccupied with all its credits. A shift by 64
	// is 0 in Go, so a 64-slot router gets every bit.
	for id := range n.freeVC {
		n.freeVC[id] = 1<<uint(P*cfg.VCs) - 1
	}
	for i := range n.linkLat {
		n.linkLat[i] = cfg.LinkLatency
	}
	for id := 0; id < nodes; id++ {
		n.allIDs[id] = id
		n.routers[id] = newRouter(id, cfg, tp, activeSet[id])
		nic := &ni{credits: make([]int, cfg.VCs)}
		for v := range nic.credits {
			nic.credits[v] = cfg.BufferDepth
		}
		n.nis[id] = nic
		if activeSet[id] {
			n.activeCount++
		}
	}
	n.markAllDirty()
	return n, nil
}

// route is a network's routing algorithm with the VC policy it carries.
// When the algorithm implements routing.VCPolicy with more than one class
// (dateline classes on torus and circulant rings), vcClassFn restricts VC
// allocation to the class's sub-partition and vcClasses is the class
// count; they are nil and 0 for mesh DOR and CDOR, leaving that path
// untouched. vcSpan is the VC count of the partition a packet may take: a
// route class's, or the message class's without a policy.
type route struct {
	alg       routing.Algorithm
	vcClassFn func(cur, dst int) int
	vcClasses int
	vcSpan    int
}

// newRoute pairs alg with its VC policy, rejecting a policy whose classes
// do not divide each message class's VCs. NewTopo and Reconfigure install
// an algorithm only through it.
func newRoute(cfg Config, alg routing.Algorithm) (route, error) {
	vcp, ok := alg.(routing.VCPolicy)
	if !ok || vcp.VCClasses() <= 1 {
		return route{alg: alg, vcSpan: cfg.vcsPerClass()}, nil
	}
	if cfg.vcsPerClass()%vcp.VCClasses() != 0 {
		return route{}, fmt.Errorf("noc: %d VCs per message class not divisible by %d route VC classes of %s",
			cfg.vcsPerClass(), vcp.VCClasses(), alg.Name())
	}
	return route{alg: alg, vcClassFn: vcp.VCClass, vcClasses: vcp.VCClasses(),
		vcSpan: cfg.vcsPerClass() / vcp.VCClasses()}, nil
}

// UseReferenceStepper(true) switches Step to the pre-optimization reference
// pipeline in which every stage scans every router, idle or not. The
// active-work bookkeeping is still maintained, so the mode can be toggled at
// any cycle boundary. Results are bit-identical in both modes — the
// zero-drift equivalence suite enforces it — which makes the reference mode
// the baseline the perf harness and drift tests compare against.
func (n *Network) UseReferenceStepper(on bool) { n.scanAll = on }

// markBusy adds router id to the active-work set. Idempotent and
// allocation-free. Step copies the work set into the audit dirty set once
// per cycle, so markBusy itself leaves that set alone.
func (n *Network) markBusy(id int) { n.work[id>>6] |= 1 << uint(id&63) }

// markDirty adds router id to the audit dirty set: its state changed
// outside a Step.
func (n *Network) markDirty(id int) { n.dirty[id>>6] |= 1 << uint(id&63) }

// markAllDirty puts every router in the audit dirty set, so the next Audit
// walks them all.
func (n *Network) markAllDirty() {
	for w := range n.dirty {
		n.dirty[w] = ^uint64(0)
	}
	if tail := n.nodes & 63; tail != 0 {
		n.dirty[len(n.dirty)-1] = 1<<uint(tail) - 1
	}
}

// inSet reports whether router id's bit is set in bitset set.
func inSet(set []uint64, id int) bool { return set[id>>6]>>uint(id&63)&1 != 0 }

// sweepIDs returns the router ids the pipeline stages visit this cycle: a
// snapshot of the active-work set in ascending order (markBusy during the
// cycle must never change the routers this Step visits), or every router
// under the reference stepper.
func (n *Network) sweepIDs() []int {
	if n.scanAll {
		return n.allIDs
	}
	ids := n.sweepBuf[:0]
	for w, word := range n.work {
		for ; word != 0; word &= word - 1 {
			ids = append(ids, w<<6|bits.TrailingZeros64(word))
		}
	}
	n.sweepBuf = ids
	return ids
}

// routerIdle reports whether router id holds no work at all: no credits,
// flits, or ejections in flight toward it, no input VC mid-packet, and a
// fully idle NI. Such a router cannot act until some event append marks it
// busy again, so it is safe to drop from the work set.
func (n *Network) routerIdle(id int) bool {
	r, nic := n.routers[id], n.nis[id]
	return r.inMask == 0 && r.busyVCs == 0 && n.eject[id].n == 0 &&
		len(n.credbox[id]) == 0 && len(n.nicredbox[id]) == 0 &&
		nic.cur == nil && len(nic.queue) == 0
}

// prune drops fully drained routers from the active-work set at the end of
// a Step. O(busy routers + routers/64), allocation-free.
func (n *Network) prune() {
	for w, word := range n.work {
		for m := word; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			if n.routerIdle(w<<6 | b) {
				n.work[w] &^= 1 << uint(b)
			}
		}
	}
}

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// BufferDepth returns the flit depth of every input VC buffer, without
// copying the Config.
func (n *Network) BufferDepth() int { return n.cfg.BufferDepth }

// Upstream returns the router behind router id's input port p and the
// output port of that router whose link ends there, read from the port
// table the stepper routes by; up is -1 when no link is behind p.
func (n *Network) Upstream(id, p int) (up, port int) {
	return n.routers[id].downstream[p], n.opp[p]
}

// Topo returns the topology the network was built over.
func (n *Network) Topo() topo.Topology { return n.tp }

// Reconfigurations returns how many Reconfigure calls have changed the
// active set or installed a routing algorithm. Anything derived from the
// routing, such as a cache of a route oracle's answers, is stale once it
// moves.
func (n *Network) Reconfigurations() int64 { return n.reconfigs }

// Algorithm returns the routing algorithm currently in use.
func (n *Network) Algorithm() routing.Algorithm { return n.alg }

// Nodes returns the topology's node count.
func (n *Network) Nodes() int { return n.nodes }

// Cycle returns the current simulation cycle.
func (n *Network) Cycle() int64 { return n.cycle }

// SetMeasuring toggles the measurement window: packets created while
// measuring contribute to latency statistics when they complete.
func (n *Network) SetMeasuring(on bool) { n.measuring = on }

// Stats returns a snapshot of the accumulated statistics.
func (n *Network) Stats() Stats {
	s := n.stats
	s.Cycles = n.cycle
	s.Events = Events{}
	for _, r := range n.routers {
		s.Events.Add(r.events)
	}
	return s
}

// RouterEvents returns the micro-event counters of router id.
func (n *Network) RouterEvents(id int) Events { return n.routers[id].events }

// ActiveRouters returns the number of powered routers. The count is
// maintained incrementally by New and Reconfigure (tests assert it against
// a full scan), so per-cycle polls cost O(1) instead of O(mesh).
func (n *Network) ActiveRouters() int { return n.activeCount }

// MeasuredCounts returns the created and ejected counters of measured
// packets without aggregating per-router events — drain loops poll this
// every cycle, where the O(routers) Events sum inside Stats would dominate
// the cycle cost.
func (n *Network) MeasuredCounts() (created, ejected int64) {
	return n.stats.MeasuredCreated, n.stats.MeasuredEjected
}

// Progress returns a count that grows whenever a flit moves: flits injected
// and ejected plus buffer writes and reads, network-wide. It equals Stats'
// FlitsInjected + FlitsEjected + Events.BufferReads + Events.BufferWrites,
// but costs O(1), so a watchdog can poll it every cycle.
func (n *Network) Progress() int64 {
	return n.stats.FlitsInjected + n.stats.FlitsEjected + n.bufferMoves
}

// Enqueue creates a packet from src to dst in message class 0 and places
// it in src's source queue. Both nodes must be active. The packet is
// returned so callers can inspect its completion times.
func (n *Network) Enqueue(src, dst int) *Packet {
	return n.EnqueuePacket(src, dst, 0, n.cfg.PacketLength)
}

// EnqueuePacket creates a packet in the given message class (VC partition)
// with an explicit flit count — protocol models use short control packets
// and long data packets. It panics when src or dst is gated: callers using
// it assert a fixed topology, so a gated endpoint is a programming error.
// Traffic that can legitimately race with fault-driven reconfiguration goes
// through TryEnqueuePacket instead.
func (n *Network) EnqueuePacket(src, dst, class, length int) *Packet {
	p, err := n.TryEnqueuePacket(src, dst, class, length)
	if err != nil {
		panic(err.Error())
	}
	return p
}

// TryEnqueuePacket is EnqueuePacket with the gating precondition turned
// into an error: it refuses (rather than panics) when src or dst is outside
// the node set or currently dark, so traffic generators and the sprint
// governor can treat a race with reconfiguration as a dropped offer.
// Invalid class or length still panic — those are programming errors in any
// topology.
func (n *Network) TryEnqueuePacket(src, dst, class, length int) (*Packet, error) {
	if class < 0 || class >= n.cfg.classes() {
		panic(fmt.Sprintf("noc: class %d outside [0,%d)", class, n.cfg.classes()))
	}
	if length < 1 {
		panic(fmt.Sprintf("noc: packet length %d < 1", length))
	}
	if err := n.endpointErr(src, dst); err != nil {
		return nil, fmt.Errorf("noc: %w", err)
	}
	p := &Packet{
		ID:         n.nextPacketID,
		Src:        src,
		Dst:        dst,
		Length:     length,
		CreatedAt:  n.cycle,
		InjectedAt: -1,
		EjectedAt:  -1,
		Measured:   n.measuring,
		Class:      class,
	}
	n.nextPacketID++
	n.stats.PacketsCreated++
	n.classCreated[class] += int64(length)
	if p.Measured {
		n.stats.MeasuredCreated++
	}
	n.nis[src].queue = append(n.nis[src].queue, p)
	n.markBusy(src)
	n.markDirty(src)
	return p, nil
}

// endpointErr reports why a packet from src to dst cannot be enqueued now:
// an endpoint outside the node set, or dark.
func (n *Network) endpointErr(src, dst int) error {
	if src < 0 || src >= len(n.nis) || dst < 0 || dst >= len(n.nis) {
		return fmt.Errorf("enqueue %d->%d outside %s", src, dst, n.tp.Name())
	}
	if !n.routers[src].active {
		return fmt.Errorf("enqueue at gated node %d", src)
	}
	if !n.routers[dst].active {
		return fmt.Errorf("enqueue toward gated node %d", dst)
	}
	return nil
}

// InFlight returns the number of packets created but neither fully ejected
// nor dropped by a reconfiguration.
func (n *Network) InFlight() int64 {
	return n.stats.PacketsCreated - n.stats.PacketsEjected - n.stats.PacketsDropped
}

// Drained reports whether no packets remain anywhere in the system.
func (n *Network) Drained() bool { return n.InFlight() == 0 }

// Step advances the network by one cycle. Stages run in reverse pipeline
// order (credits, SA+ST, VA, RC, buffer write, injection) so each flit
// advances at most one stage per cycle. SA, VA and RC run as one pass per
// router: they read only their own router's state, everything they send to
// other routers is dated to a later cycle, and none of them calls the probe,
// so the pass is exact and the probe stream keeps its order. Each stage
// visits only the routers in the active-work set (every router under the
// reference stepper); since the reverse ordering guarantees no flit needs
// two stages in one cycle, a router marked busy mid-cycle never needs
// processing before the next cycle, and the set snapshot taken here stays
// valid for the whole Step.
func (n *Network) Step() {
	now := n.cycle
	ids := n.sweepIDs()
	n.deliverCredits(ids)
	for _, id := range ids {
		if r := n.routers[id]; r.active && n.powered(id) {
			n.switchAllocation(now, r)
			n.vcAllocation(r)
			n.routeCompute(r)
		}
	}
	n.deliverFlits(now, ids)
	n.inject(now, ids)
	n.endCycle(now)
}

// endCycle is the tail of Step: runtime gating, the audit dirty set, the
// probe's cycle end and the prune of drained routers.
func (n *Network) endCycle(now int64) {
	n.updateGating(now)
	// Every router this Step may have changed is in the work set until
	// prune: the ones it visited and the ones something was sent to. The
	// reference stepper visits them all.
	if n.scanAll {
		n.markAllDirty()
	} else {
		for w, word := range n.work {
			n.dirty[w] |= word
		}
	}
	if n.probe != nil {
		n.probe.CycleEnd(n, now)
	}
	n.prune()
	n.cycle++
}

// RunUntil is the cycle loop every driver shares. It steps the network at
// most maxCycles times and reports whether done held when it stopped. done
// is called exactly once per cycle boundary — on entry and after every
// step, the last at cycle maxCycles — so work that completes on the last
// permitted cycle reports true, and a closed-loop driver can run its
// per-cycle phase inside done; a nil done never holds. Before every step,
// and nowhere else, ctx is polled once and then each, when non-nil, runs. Cancellation therefore lands between whole
// steps, and the poll never perturbs simulation state. A cancelled run
// returns an error satisfying errors.Is(err, ctx.Err()) that callers wrap
// with their phase; an error from each ends the run and is returned as is.
// A nil ctx never cancels.
func (n *Network) RunUntil(ctx context.Context, maxCycles int, each func() error, done func() bool) (bool, error) {
	for i := 0; ; i++ {
		if done != nil && done() {
			return true, nil
		}
		if i >= maxCycles {
			return false, nil
		}
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return false, fmt.Errorf("cancelled at cycle %d: %w", n.cycle, err)
			}
		}
		if each != nil {
			if err := each(); err != nil {
				return false, err
			}
		}
		n.Step()
	}
}

// deliverCredits lands every credit in flight: switch allocation sent each
// of them last cycle, so each box empties whole. The first credit back at
// an occupied output VC makes its holder ready for the switch, if it has a
// flit buffered; the last one back at an unoccupied VC frees it.
func (n *Network) deliverCredits(ids []int) {
	nVC, depth := n.cfg.VCs, n.cfg.BufferDepth
	for _, id := range ids {
		r, nic := n.routers[id], n.nis[id]
		if box := n.credbox[id]; len(box) > 0 {
			ready, free := n.ready[id], n.freeVC[id]
			for _, ev := range box {
				s := ev.port*nVC + ev.vc
				o := &r.out[s]
				o.credits++
				if n.probe != nil {
					n.probe.CreditDelivered(n, id, ev.port, ev.vc, o.credits)
				}
				if o.credits > depth {
					panic("noc: credit overflow")
				}
				// Without a branch on the credit count: an unoccupied VC's
				// holder is noSlot, whose shift is 0.
				ready |= r.saSet & (b2u(o.credits == 1) << o.holder)
				free |= (b2u(o.credits == depth) &^ b2u(o.holder != noSlot)) << uint(s)
			}
			n.ready[id], n.freeVC[id] = ready, free
			n.credbox[id] = box[:0]
		}
		for _, ev := range n.nicredbox[id] {
			nic.credits[ev.vc]++
			if n.probe != nil {
				n.probe.CreditDelivered(n, id, topo.Local, ev.vc, nic.credits[ev.vc])
			}
			if nic.credits[ev.vc] > depth {
				panic("noc: NI credit overflow")
			}
		}
		n.nicredbox[id] = n.nicredbox[id][:0]
	}
}

// switchAllocation arbitrates r's crossbar per output port and performs
// switch+link traversal for the winners. Output ports arbitrate in index
// order; each grants the first requester with a credit at or after its
// round-robin pointer, skipping input ports that already sent a flit this
// cycle, and a grant moves the pointer one past the winner.
func (n *Network) switchAllocation(now int64, r *router) {
	if n.scanAll {
		n.switchAllocationScan(now, r)
		return
	}
	ready := n.ready[r.id]
	if ready == 0 {
		return // no requester with a credit: no grant, and no pointer can move
	}
	// A grant changes only its own slot's bits, and used masks its input
	// port from then on, so the ready word taken here stays valid for every
	// port.
	var used uint64
	base := r.id * n.P
	for outPort, req := range n.saReq[base : base+n.P] {
		if cand := req & ready &^ used; cand != 0 {
			b := nextSlot(cand, r.saPtr[outPort])
			n.traverse(now, r, b, outPort)
			used |= n.portMask[n.slotPort[b]]
		}
	}
}

// switchAllocationScan is switchAllocation on the reference stepper: each
// output port sweeps every slot from its pointer.
func (n *Network) switchAllocationScan(now int64, r *router) {
	nVC := n.cfg.VCs
	slots := len(r.in)
	var used uint64 // input ports that already sent
	for outPort := 0; outPort < n.P; outPort++ {
		for k := 0; k < slots; k++ {
			b := (r.saPtr[outPort] + k) % slots
			v := &r.in[b]
			if used&(1<<uint(b/nVC)) != 0 || v.state != vcActive || v.empty() ||
				v.outPort != outPort || !r.hasCredit(outPort, v.outVC, nVC) {
				continue
			}
			n.traverse(now, r, b, outPort)
			used |= 1 << uint(b/nVC)
			break
		}
	}
}

// traverse grants slot b the crossbar toward outPort: one flit crosses the
// switch and the link (or goes to the NI), its buffer slot returns upstream
// as a credit, and a tail releases the VC. The slot leaves saSet when its
// buffer empties and stops being ready when its output VC runs out of
// credits; a tail leaving through Local frees its VC at once, and one
// leaving on a link frees it when the last credit comes home.
func (n *Network) traverse(now int64, r *router, b, outPort int) {
	id := r.id
	inPort, inVC := int(n.slotPort[b]), int(n.slotVC[b])
	v := &r.in[b]
	s := outPort*n.cfg.VCs + v.outVC
	o := &r.out[s]
	f := v.pop()
	f.vc = int16(v.outVC)
	r.events.BufferReads++
	n.bufferMoves++
	r.events.XbarTraversals++
	r.events.SAGrants++
	if next := b + 1; next < len(r.in) {
		r.saPtr[outPort] = next
	} else {
		r.saPtr[outPort] = 0
	}
	bit := uint64(1) << uint(b)
	if v.empty() {
		r.saSet &^= bit
		n.saReq[id*n.P+outPort] &^= bit
		n.ready[id] &^= bit
	}

	if outPort == topo.Local {
		n.eject[id].push(arrival{f: f, t: now + 1})
		n.markBusy(id)
	} else {
		if o.credits--; o.credits == 0 {
			n.ready[id] &^= bit
		}
		r.events.LinkFlits++
		dst := r.downstream[outPort]
		if dst < 0 {
			panic("noc: flit routed off topology edge")
		}
		// Switch traversal takes this cycle; link traversal adds the link's
		// latency (the ST then LT stages).
		n.send(dst, n.opp[outPort], arrival{f: f, t: now + 1 + int64(n.linkLatencyOf(id, outPort))})
	}

	// Return the freed buffer slot upstream as a credit.
	if inPort == topo.Local {
		n.nicredbox[id] = append(n.nicredbox[id], creditEvt{port: topo.Local, vc: inVC})
		n.markBusy(id)
	} else {
		up := r.downstream[inPort] // neighbour feeding this input
		n.credbox[up] = append(n.credbox[up], creditEvt{port: n.opp[inPort], vc: inVC})
		n.markBusy(up)
	}

	if f.typ.IsTail() {
		v.state, v.pkt = vcIdle, nil
		r.busyVCs--
		o.holder = noSlot
		if outPort == topo.Local {
			n.freeVC[id] |= 1 << uint(s)
		}
	}
}

// send puts a flit in flight toward router id's input port p.
func (n *Network) send(id, p int, a arrival) {
	n.inbox[id*n.P+p].push(a)
	n.routers[id].inMask |= 1 << uint(p)
	n.markBusy(id)
}

// vcAllocation grants free output VCs to r's input VCs whose route is
// computed. An output VC is reallocated only when unoccupied with full
// credits, which keeps each VC buffer single-packet (atomic VC allocation).
// When the routing algorithm carries a VC policy, the packet's
// message-class partition is further restricted to the route class's
// sub-partition (dateline escape VCs on torus/circulant rings).
//
// Output ports allocate in index order, each in ports x VCs steps over the
// slots: step k visits slot (vaPtr + k) mod (ports x VCs), reading the
// port's vaPtr afresh, and a grant at slot w sets vaPtr to w+1. After a
// grant at step k the next slot visited is therefore w+k+2, not w+1, and a
// requester can be visited twice. The optimized stepper follows the same
// steps but jumps from requester to requester.
func (n *Network) vcAllocation(r *router) {
	if n.scanAll {
		n.vcAllocationScan(r)
		return
	}
	if r.vaSet == 0 {
		return
	}
	// A grant changes only its own slot, and new vcVA slots appear later, in
	// routeCompute, so the requester sets taken here stay valid. A port
	// with every VC taken is skipped, and its walk ends when a grant takes
	// the last one: no grant can happen there, so no pointer moves.
	id, slots := r.id, len(r.in)
	base := id * n.P
	for outPort, cand := range n.vaReq[base : base+n.P] {
		if cand == 0 || n.freeVC[id]&n.portMask[outPort] == 0 {
			continue
		}
		ptr := r.vaPtr[outPort]
		for k := 0; k < slots && cand != 0; k++ {
			s := ptr + k
			if s >= slots {
				s -= slots
			}
			b := nextSlot(cand, s)
			if b >= s {
				k += b - s
			} else {
				k += b + slots - s
			}
			if k >= slots {
				break
			}
			// Each requester is tried once: a grant leaves vcVA, and one that
			// found no free VC finds none on a revisit, since VCs are only
			// taken while a port allocates.
			cand &^= 1 << uint(b)
			if n.grantVC(r, b, outPort) {
				if n.freeVC[id]&n.portMask[outPort] == 0 {
					break
				}
				ptr = r.vaPtr[outPort]
			}
		}
	}
}

// vcAllocationScan is vcAllocation on the reference stepper: each output
// port takes every step.
func (n *Network) vcAllocationScan(r *router) {
	slots := len(r.in)
	for outPort := 0; outPort < n.P; outPort++ {
		for k := 0; k < slots; k++ {
			b := (r.vaPtr[outPort] + k) % slots
			if v := &r.in[b]; v.state == vcVA && v.outPort == outPort {
				n.grantVC(r, b, outPort)
			}
		}
	}
}

// grantVC tries to give slot b, routed to outPort, a free output VC in its
// packet's partition, which route compute fixed (vcLo). On success the slot
// moves from VA to SA, ready for the switch, since its head flit is
// buffered and a free VC holds every credit, and the port's VA pointer
// moves to the slot after b.
func (n *Network) grantVC(r *router, b, outPort int) bool {
	v := &r.in[b]
	id, base, lo := r.id, outPort*n.cfg.VCs, int(v.vcLo)
	free := n.freeVC[id] >> uint(base+lo) & (1<<uint(n.vcSpan) - 1)
	if free == 0 {
		return false // this class's VCs are exhausted this cycle
	}
	outVC := lo + r.freeOutputVC(outPort, free, n.vcSpan)
	s := base + outVC
	r.out[s].holder = uint8(b)
	n.freeVC[id] &^= 1 << uint(s)
	v.outVC = outVC
	v.state = vcActive
	r.events.VAGrants++
	if next := b + 1; next < len(r.in) {
		r.vaPtr[outPort] = next
	} else {
		r.vaPtr[outPort] = 0
	}
	bit := uint64(1) << uint(b)
	r.vaSet &^= bit
	n.vaReq[id*n.P+outPort] &^= bit
	r.saSet |= bit
	n.saReq[id*n.P+outPort] |= bit
	n.ready[id] |= bit
	return true
}

// freeOutputVC picks one of a class partition's free output VCs on
// outPort, given as the bits of the non-empty set free over the
// partition's span VCs, in round-robin order from the port's VC pointer.
// It returns the VC's offset in the partition and moves the pointer one
// past it. A pointer at or beyond span, left by a partition of another
// width, starts from its remainder, as the walk (pointer+k) mod span did.
func (r *router) freeOutputVC(outPort int, free uint64, span int) int {
	from := r.vaVCPtr[outPort]
	if from >= span {
		from %= span
	}
	k := nextSlot(free, from)
	if k+1 < span {
		r.vaVCPtr[outPort] = k + 1
	} else {
		r.vaVCPtr[outPort] = 0
	}
	return k
}

// nextSlot returns the first slot of the non-empty set at or after slot
// from, wrapping to slot 0: the next requester a round-robin sweep starting
// at from reaches.
func nextSlot(set uint64, from int) int {
	if hi := set >> uint(from); hi != 0 {
		return from + bits.TrailingZeros64(hi)
	}
	return bits.TrailingZeros64(set)
}

// routeCompute computes output ports for r's head flits newly buffered.
func (n *Network) routeCompute(r *router) {
	if n.scanAll {
		for b := range r.in {
			if v := &r.in[b]; v.state == vcRoute && !v.empty() {
				n.computeRoute(r, b)
			}
		}
		return
	}
	for set := r.rcSet; set != 0; set &= set - 1 {
		n.computeRoute(r, bits.TrailingZeros64(set))
	}
}

// computeRoute routes the head flit buffered in slot b, fixes the VC
// partition it may take, and moves the slot from RC to VA.
func (n *Network) computeRoute(r *router, b int) {
	v := &r.in[b]
	port, err := n.alg.NextPort(r.id, v.pkt.Dst)
	if err != nil {
		panic(fmt.Sprintf("noc: routing failure at router %d for packet %d->%d: %v",
			r.id, v.pkt.Src, v.pkt.Dst, err))
	}
	v.outPort = port
	v.vcLo = uint8(n.partitionLo(r.id, v.pkt))
	v.state = vcVA
	bit := uint64(1) << uint(b)
	r.rcSet &^= bit
	r.vaSet |= bit
	n.vaReq[r.id*n.P+port] |= bit
}

// partitionLo returns the first output VC of the partition pkt may take at
// router id: its message class's, narrowed under a VC policy to its route
// class's sub-partition. VC policies are pure, so route compute fixes it
// for the VA attempts that follow.
func (n *Network) partitionLo(id int, pkt *Packet) int {
	lo := pkt.Class * n.perClass
	if n.vcClassFn != nil {
		lo += n.vcClassFn(id, pkt.Dst) * n.vcSpan
	}
	return lo
}

// deliverFlits performs buffer writes for flits whose link traversal
// completes this cycle, and ejections into NIs. The flits due by now are a
// prefix of each queue.
func (n *Network) deliverFlits(now int64, ids []int) {
	P, nVC := n.P, n.cfg.VCs
	for _, id := range ids {
		r := n.routers[id]
		for m := r.inMask; m != 0; m &= m - 1 {
			p := bits.TrailingZeros64(m)
			q := &n.inbox[id*P+p]
			// Runtime gating: an arrival at a gated router triggers wake-up
			// and waits out the power-on latency. A router that refuses one
			// arrival is waking past now, so it refuses the rest of this
			// cycle's too, with no side effect.
			for q.n > 0 && q.at(0).t <= now && n.wakeArrival(id, now) {
				f := q.at(0).f
				q.pop()
				// The checker sees the arrival before the simulator's own
				// gating panic so a dark-router violation is reported with a
				// full snapshot instead of a bare panic string.
				if n.probe != nil {
					n.probe.FlitArrived(n, id, p, f.pkt, f.typ, int(f.vc))
				}
				r.checkGated()
				b := p*nVC + int(f.vc)
				v := &r.in[b]
				v.push(f, n.cfg.BufferDepth)
				r.events.BufferWrites++
				n.bufferMoves++
				bit := uint64(1) << uint(b)
				if f.typ.IsHead() {
					v.state = vcRoute
					r.busyVCs++
					r.rcSet |= bit
				} else if v.state == vcActive && r.saSet&bit == 0 {
					// The VC joins saSet, and is ready if it has a credit.
					r.saSet |= bit
					n.saReq[id*P+v.outPort] |= bit
					if v.outPort == topo.Local || r.out[v.outPort*nVC+v.outVC].credits > 0 {
						n.ready[id] |= bit
					}
				}
			}
			if q.n == 0 {
				r.inMask &^= 1 << uint(p)
			}
		}

		// Ejections: the NI consumes arrivals immediately.
		for q := &n.eject[id]; q.n > 0 && q.at(0).t <= now; {
			f := q.at(0).f
			q.pop()
			// During a reconfiguration drain, a node being retired can no
			// longer consume traffic: flits reaching its NI traversed the
			// fabric normally (credits and buffers all accounted) but are
			// discarded here as dropped rather than delivered.
			if n.dropDst != nil && n.dropDst[id] {
				n.stats.FlitsDropped++
				n.classDropped[f.pkt.Class]++
				if n.probe != nil {
					n.probe.FlitEjected(n, id, f.pkt, f.typ.IsTail(), true)
				}
				if f.typ.IsTail() {
					n.stats.PacketsDropped++
				}
				continue
			}
			n.stats.FlitsEjected++
			n.classEjected[f.pkt.Class]++
			if n.probe != nil {
				n.probe.FlitEjected(n, id, f.pkt, f.typ.IsTail(), false)
			}
			if f.typ.IsTail() {
				pkt := f.pkt
				pkt.EjectedAt = now
				n.stats.PacketsEjected++
				if pkt.Measured {
					n.stats.MeasuredEjected++
					n.stats.LatencySum += pkt.EjectedAt - pkt.CreatedAt
					n.stats.NetLatencySum += pkt.EjectedAt - pkt.InjectedAt
				}
				if n.sink != nil {
					n.sink(pkt)
				}
			}
		}
	}
}

// inject moves flits from source queues into router Local input ports, one
// flit per node per cycle.
func (n *Network) inject(now int64, ids []int) {
	for _, id := range ids {
		if !n.routers[id].active {
			continue
		}
		nic := n.nis[id]
		if nic.cur == nil && len(nic.queue) > 0 && !n.quiesced {
			// Serve the oldest packet whose class still has a free VC;
			// classes are independent, so a stalled class must not block
			// the others at the source (order within a class is kept). A
			// class found full stays full for the rest of the scan, so its
			// packets are skipped, and the scan ends once every class is.
			var full uint64
			for qi, pkt := range nic.queue {
				bit := uint64(1) << uint(pkt.Class)
				if full&bit != 0 {
					continue
				}
				vc := n.freeInjectionVC(id, pkt.Class)
				if vc < 0 {
					if full |= bit; full == n.allClasses {
						break
					}
					continue
				}
				nic.cur = pkt
				copy(nic.queue[qi:], nic.queue[qi+1:])
				nic.queue = nic.queue[:len(nic.queue)-1]
				nic.curSeq = 0
				nic.curVC = vc
				break
			}
		}
		if nic.cur == nil || nic.credits[nic.curVC] <= 0 {
			continue
		}
		pkt := nic.cur
		typ := flitType(nic.curSeq, pkt.Length)
		nic.credits[nic.curVC]--
		n.send(id, topo.Local, arrival{f: flit{pkt: pkt, seq: int32(nic.curSeq), vc: int16(nic.curVC), typ: typ}, t: now + 1})
		n.stats.FlitsInjected++
		if n.probe != nil {
			n.probe.FlitInjected(n, id, pkt, nic.curSeq)
		}
		if typ.IsHead() {
			pkt.InjectedAt = now
			n.stats.PacketsInjected++
		}
		nic.curSeq++
		if nic.curSeq == pkt.Length {
			nic.cur = nil
		}
	}
}

// freeInjectionVC returns a Local-input VC in the packet class's partition
// able to accept a new packet: idle router-side with all credits returned,
// or -1.
func (n *Network) freeInjectionVC(id, class int) int {
	r := n.routers[id]
	nic := n.nis[id]
	lo := class * n.perClass
	for vc := lo; vc < lo+n.perClass; vc++ {
		if nic.credits[vc] == n.cfg.BufferDepth && r.in[topo.Local*n.cfg.VCs+vc].state == vcIdle {
			return vc
		}
	}
	return -1
}

// linkLatencyOf returns the latency of the directed link leaving router id
// through port p, in cycles: a single dense-array read on the switch
// traversal hot path.
func (n *Network) linkLatencyOf(id, p int) int {
	return n.linkLat[id*n.P+p]
}

// SetLinkLatency overrides the latency of the directed link from router a
// to router b (both directions must be set separately). It must be called
// before simulation starts; latencies model physically longer wires, e.g.
// after thermal-aware floorplanning without SMART repeaters.
func (n *Network) SetLinkLatency(a, b, cycles int) error {
	if n.cycle != 0 {
		return fmt.Errorf("noc: link latencies must be set before simulation starts")
	}
	if cycles < 1 {
		return fmt.Errorf("noc: link latency %d < 1", cycles)
	}
	if a < 0 || a >= n.nodes || b < 0 || b >= n.nodes {
		return fmt.Errorf("noc: link %d->%d outside %s", a, b, n.tp.Name())
	}
	p := n.tp.PortTo(a, b)
	if p < 0 {
		return fmt.Errorf("noc: %d and %d are not linked", a, b)
	}
	n.linkLat[a*n.P+p] = cycles
	return nil
}

// SetSink installs a callback invoked at every packet's tail ejection —
// the hook closed-loop protocol models (e.g. a cache hierarchy) use to
// react to message delivery. The callback runs inside Step; it may enqueue
// new packets but must not call Step recursively.
func (n *Network) SetSink(sink func(*Packet)) { n.sink = sink }
