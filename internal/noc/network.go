package noc

import (
	"context"
	"fmt"
	"sort"

	"nocsprint/internal/mesh"
	"nocsprint/internal/routing"
	"nocsprint/internal/topo"
)

// arrival is a flit in flight on a link, due at cycle t.
type arrival struct {
	f flit
	t int64
}

// creditEvt is a credit in flight back to an upstream output (port,vc).
type creditEvt struct {
	port int
	vc   int
	t    int64
}

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

// AvgNetLatency returns mean measured in-network packet latency (cycles).
func (s Stats) AvgNetLatency() (float64, bool) {
	if s.MeasuredEjected == 0 {
		return 0, false
	}
	return float64(s.NetLatencySum) / float64(s.MeasuredEjected), true
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
	active  bool
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
	alg   routing.Algorithm
	// vcClassFn, when the routing algorithm carries a VC policy
	// (routing.VCPolicy: dateline classes on torus/circulant rings),
	// restricts VC allocation to the class's sub-partition; vcClasses is the
	// class count. nil/1 for mesh DOR/CDOR, leaving that path untouched.
	vcClassFn func(cur, dst int) int
	vcClasses int
	routers   []*router
	// inbox[id*P+p] holds flits in flight toward router id's input port p
	// (flattened per-port boxes, degree-parameterized).
	inbox [][]arrival
	// credbox[r] holds credits in flight back to router r's outputs.
	credbox [][]creditEvt
	// nicredbox[r] holds credits (freed Local-input slots) flowing back to
	// NI r, as (vc, cycle) pairs encoded in creditEvt with port Local.
	nicredbox [][]creditEvt
	// eject[r] holds flits in flight from router r's Local output to NI r.
	eject [][]arrival
	nis   []*ni

	cycle        int64
	measuring    bool
	nextPacketID int64
	stats        Stats
	// Runtime power gating (nil when disabled; see gating.go).
	gatingCfg GatingConfig
	gating    []gatingState
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
	// O(mesh). work lists those router ids in ascending order (matching the
	// full scan's iteration order, which keeps results and checker event
	// streams bit-identical); inWork mirrors membership for O(1) tests.
	// Every event append (flit, credit, ejection, source enqueue) marks its
	// destination busy; routers whose state has fully drained are pruned at
	// the end of each Step. sweepBuf is the per-cycle snapshot the stages
	// iterate, so markBusy during a cycle never mutates a live range.
	inWork   []bool
	work     []int
	sweepBuf []int
	// allIDs enumerates every router; scanAll (the reference stepper, see
	// UseReferenceStepper) makes the stages visit them all, reproducing the
	// pre-optimization full-scan pipeline.
	allIDs  []int
	scanAll bool
	// activeCount caches the powered-router population; maintained by New
	// and Reconfigure instead of rescanning all routers on every
	// ActiveRouters call (the fault driver polls it every cycle).
	activeCount int
	// usedInput is per-cycle scratch for the one-flit-per-input-port
	// crossbar constraint, indexed id*P+port like inbox.
	usedInput []bool
	// pendingBuf is shared per-router scratch for the allocator prescans
	// (one int per output port), preallocated so the degree-parameterized
	// stages stay allocation-free in steady state.
	pendingBuf []int
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

// NewTopo builds a network over an arbitrary topology. cfg's Width/Height
// are ignored (the topology defines the node set); the fabric parameters
// (VCs, buffers, packet length, link latency, classes) are validated as in
// New. When alg implements routing.VCPolicy, each message class's VC
// partition is further subdivided among the policy's route classes (dateline
// escape VCs), so VCs must be divisible by Classes x VCClasses.
func NewTopo(cfg Config, tp topo.Topology, alg routing.Algorithm, activeNodes []int) (*Network, error) {
	if tp == nil {
		return nil, fmt.Errorf("noc: nil topology")
	}
	if err := cfg.validateFabric(); err != nil {
		return nil, err
	}
	nodes, P := tp.Nodes(), tp.Ports()
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
	n := &Network{
		cfg:       cfg,
		tp:        tp,
		P:         P,
		nodes:     nodes,
		opp:       make([]int, P),
		alg:       alg,
		routers:   make([]*router, nodes),
		inbox:     make([][]arrival, nodes*P),
		credbox:   make([][]creditEvt, nodes),
		nicredbox: make([][]creditEvt, nodes),
		eject:     make([][]arrival, nodes),
		nis:       make([]*ni, nodes),
		usedInput: make([]bool, nodes*P),

		linkLat:    make([]int, nodes*P),
		inWork:     make([]bool, nodes),
		work:       make([]int, 0, nodes),
		sweepBuf:   make([]int, 0, nodes),
		allIDs:     make([]int, nodes),
		pendingBuf: make([]int, P),

		classCreated: make([]int64, cfg.classes()),
		classEjected: make([]int64, cfg.classes()),
		classDropped: make([]int64, cfg.classes()),
	}
	for p := 0; p < P; p++ {
		n.opp[p] = tp.Opposite(p)
	}
	if vcp, ok := alg.(routing.VCPolicy); ok && vcp.VCClasses() > 1 {
		n.vcClasses = vcp.VCClasses()
		n.vcClassFn = vcp.VCClass
		if cfg.vcsPerClass()%n.vcClasses != 0 {
			return nil, fmt.Errorf("noc: %d VCs per message class not divisible by %d route VC classes of %s",
				cfg.vcsPerClass(), n.vcClasses, alg.Name())
		}
	}
	for i := range n.linkLat {
		n.linkLat[i] = cfg.LinkLatency
	}
	for id := 0; id < nodes; id++ {
		n.allIDs[id] = id
		n.routers[id] = newRouter(id, cfg, tp, activeSet[id])
		nic := &ni{active: activeSet[id], credits: make([]int, cfg.VCs)}
		for v := range nic.credits {
			nic.credits[v] = cfg.BufferDepth
		}
		n.nis[id] = nic
		if activeSet[id] {
			n.activeCount++
		}
	}
	return n, nil
}

// UseReferenceStepper(true) switches Step to the pre-optimization reference
// pipeline in which every stage scans every router, idle or not. The
// active-work bookkeeping is still maintained, so the mode can be toggled at
// any cycle boundary. Results are bit-identical in both modes — the
// zero-drift equivalence suite enforces it — which makes the reference mode
// the baseline the perf harness and drift tests compare against.
func (n *Network) UseReferenceStepper(on bool) { n.scanAll = on }

// markBusy adds router id to the active-work set, keeping the set sorted by
// id so the optimized stepper visits routers in exactly the order the full
// scan would. Idempotent and allocation-free in steady state (the list is
// pre-sized to the node count).
func (n *Network) markBusy(id int) {
	if n.inWork[id] {
		return
	}
	n.inWork[id] = true
	i := sort.SearchInts(n.work, id)
	n.work = append(n.work, 0)
	copy(n.work[i+1:], n.work[i:])
	n.work[i] = id
}

// sweepIDs returns the router ids the pipeline stages visit this cycle: a
// stable snapshot of the active-work set (markBusy during the cycle must
// never mutate a slice the stages are ranging over), or every router under
// the reference stepper.
func (n *Network) sweepIDs() []int {
	if n.scanAll {
		return n.allIDs
	}
	n.sweepBuf = append(n.sweepBuf[:0], n.work...)
	return n.sweepBuf
}

// routerIdle reports whether router id holds no work at all: no credits,
// flits, or ejections in flight toward it, no input VC mid-packet, and a
// fully idle NI. Such a router cannot act until some event append marks it
// busy again, so it is safe to drop from the work set.
func (n *Network) routerIdle(id int) bool {
	if len(n.credbox[id]) != 0 || len(n.nicredbox[id]) != 0 || len(n.eject[id]) != 0 {
		return false
	}
	for p := 0; p < n.P; p++ {
		if len(n.inbox[id*n.P+p]) != 0 {
			return false
		}
	}
	nic := n.nis[id]
	if nic.cur != nil || len(nic.queue) != 0 {
		return false
	}
	return n.routers[id].busyVCs == 0
}

// prune drops fully drained routers from the active-work set at the end of
// a Step. O(busy routers), in place, allocation-free.
func (n *Network) prune() {
	k := 0
	for _, id := range n.work {
		if n.routerIdle(id) {
			n.inWork[id] = false
			continue
		}
		n.work[k] = id
		k++
	}
	n.work = n.work[:k]
}

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// Topo returns the topology the network was built over.
func (n *Network) Topo() topo.Topology { return n.tp }

// Algorithm returns the routing algorithm currently in use.
func (n *Network) Algorithm() routing.Algorithm { return n.alg }

// Nodes returns the topology's node count.
func (n *Network) Nodes() int { return n.nodes }

// Mesh returns the underlying mesh. It panics when the network was built
// over a non-mesh topology — mesh-specific callers (sprint regions, CDOR
// fault repair) have no meaning there.
func (n *Network) Mesh() mesh.Mesh {
	mt, ok := n.tp.(*topo.Mesh)
	if !ok {
		panic(fmt.Sprintf("noc: Mesh() on a %s network", n.tp.Name()))
	}
	return mt.Mesh()
}

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

// Enqueue creates a packet from src to dst in message class 0 and places
// it in src's source queue. Both nodes must be active. The packet is
// returned so callers can inspect its completion times.
func (n *Network) Enqueue(src, dst int) *Packet { return n.EnqueueClass(src, dst, 0) }

// EnqueueClass creates a packet in the given message class (VC partition).
func (n *Network) EnqueueClass(src, dst, class int) *Packet {
	return n.EnqueuePacket(src, dst, class, n.cfg.PacketLength)
}

// EnqueuePacket creates a packet with an explicit flit count — protocol
// models use short control packets and long data packets. It panics when
// src or dst is gated: callers using it assert a fixed topology, so a gated
// endpoint is a programming error. Traffic that can legitimately race with
// fault-driven reconfiguration goes through TryEnqueuePacket instead.
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
	if src < 0 || src >= len(n.nis) || dst < 0 || dst >= len(n.nis) {
		return nil, fmt.Errorf("noc: enqueue %d->%d outside %s", src, dst, n.tp.Name())
	}
	if !n.nis[src].active {
		return nil, fmt.Errorf("noc: enqueue at gated node %d", src)
	}
	if !n.nis[dst].active {
		return nil, fmt.Errorf("noc: enqueue toward gated node %d", dst)
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
	return p, nil
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
// advances at most one stage per cycle. Each stage visits only the routers
// in the active-work set (every router under the reference stepper); since
// the reverse ordering guarantees no flit needs two stages in one cycle,
// a router marked busy mid-cycle never needs processing before the next
// cycle, and the set snapshot taken here stays valid for the whole Step.
func (n *Network) Step() {
	now := n.cycle
	ids := n.sweepIDs()
	n.deliverCredits(now, ids)
	n.switchAllocation(now, ids)
	n.vcAllocation(ids)
	n.routeCompute(ids)
	n.deliverFlits(now, ids)
	n.inject(now, ids)
	n.updateGating(now)
	if n.probe != nil {
		n.probe.CycleEnd(n, now)
	}
	n.prune()
	n.cycle++
}

// Run advances the network by cycles steps.
func (n *Network) Run(cycles int) { _ = n.RunCtx(nil, cycles) }

// RunCtx advances the network by cycles steps under a context, polled every
// 256 cycles like the other long cycle loops (DrainWithBudgetCtx, the fault
// driver), so cancellation is observed at cycle granularity and never
// splits a Step. A nil ctx never cancels; the poll itself never perturbs
// simulation state, so an uncancelled RunCtx is bit-identical to Run. The
// returned error satisfies errors.Is(err, ctx.Err()) on cancellation.
func (n *Network) RunCtx(ctx context.Context, cycles int) error {
	for i := 0; i < cycles; i++ {
		if ctx != nil && i%256 == 0 {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("noc: run cancelled at cycle %d (%d of %d steps done): %w",
					n.cycle, i, cycles, err)
			}
		}
		n.Step()
	}
	return nil
}

func (n *Network) deliverCredits(now int64, ids []int) {
	for _, id := range ids {
		box := n.credbox[id]
		k := 0
		for _, ev := range box {
			if ev.t > now {
				box[k] = ev
				k++
				continue
			}
			n.routers[id].out[ev.port][ev.vc].credits++
			if n.probe != nil {
				n.probe.CreditDelivered(n, id, ev.port, ev.vc, n.routers[id].out[ev.port][ev.vc].credits)
			}
			if n.routers[id].out[ev.port][ev.vc].credits > n.cfg.BufferDepth {
				panic("noc: credit overflow")
			}
		}
		n.credbox[id] = box[:k]

		nbox := n.nicredbox[id]
		k = 0
		for _, ev := range nbox {
			if ev.t > now {
				nbox[k] = ev
				k++
				continue
			}
			n.nis[id].credits[ev.vc]++
			if n.probe != nil {
				n.probe.CreditDelivered(n, id, topo.Local, ev.vc, n.nis[id].credits[ev.vc])
			}
			if n.nis[id].credits[ev.vc] > n.cfg.BufferDepth {
				panic("noc: NI credit overflow")
			}
		}
		n.nicredbox[id] = nbox[:k]
	}
}

// switchAllocation arbitrates the crossbar per output port and performs
// switch+link traversal for the winners.
func (n *Network) switchAllocation(now int64, ids []int) {
	nVC := n.cfg.VCs
	P := n.P
	reqSpace := P * nVC
	for _, id := range ids {
		r := n.routers[id]
		if !r.active || !n.powered(id) {
			continue
		}
		// With every input VC idle there is nothing to arbitrate: no grant
		// is possible and no round-robin pointer can move, so skipping the
		// O(ports x requesters) sweep is exact. The reference stepper pays
		// the sweep anyway — its job is to reproduce the pre-optimization
		// per-cycle work profile, and the busyVCs shortcut did not exist
		// then.
		if !n.scanAll && r.busyVCs == 0 {
			continue
		}
		// usedInput is only read and written while arbitrating this router,
		// so clearing it here (instead of a whole-network memset at the top
		// of Step) keeps the per-cycle cost proportional to active work.
		used := n.usedInput[id*P : (id+1)*P]
		for p := range used {
			used[p] = false
		}
		// Prescan: count grantable requesters per output port so the
		// round-robin sweeps below can skip unrequested ports and stop once
		// every counted requester has been visited. A VC's state and outPort
		// cannot change before its own port is arbitrated (grants touch only
		// the granting port's requesters, and VA/RC run after SA), so counts
		// taken here stay valid for the whole router. The reference stepper
		// keeps the pre-optimization full sweep via a sentinel count.
		pending := n.pendingBuf
		if n.scanAll {
			for p := range pending {
				pending[p] = reqSpace
			}
		} else {
			for p := range pending {
				pending[p] = 0
			}
			for p := range r.in {
				for v := range r.in[p] {
					ivc := &r.in[p][v]
					if ivc.state == vcActive && !ivc.empty() {
						pending[ivc.outPort]++
					}
				}
			}
		}
		for outPort := 0; outPort < P; outPort++ {
			// Round-robin over the flattened (inPort, inVC) requester space.
			granted := false
			for k := 0; k < reqSpace && !granted && pending[outPort] > 0; k++ {
				idx := (r.saPtr[outPort] + k) % reqSpace
				inPort := idx / nVC
				inVC := idx % nVC
				if used[inPort] {
					continue
				}
				v := &r.in[inPort][inVC]
				if v.state != vcActive || v.empty() || v.outPort != outPort {
					continue
				}
				pending[outPort]--
				if !r.hasCredit(outPort, v.outVC) {
					continue
				}
				// Grant: traverse switch and link.
				f := v.pop()
				f.vc = v.outVC
				r.events.BufferReads++
				r.events.XbarTraversals++
				r.events.SAGrants++
				used[inPort] = true
				r.saPtr[outPort] = (idx + 1) % reqSpace
				granted = true

				if outPort == topo.Local {
					n.eject[id] = append(n.eject[id], arrival{f: f, t: now + 1})
					n.markBusy(id)
				} else {
					r.out[outPort][v.outVC].credits--
					r.events.LinkFlits++
					dst := r.downstream[outPort]
					if dst < 0 {
						panic("noc: flit routed off topology edge")
					}
					inDir := n.opp[outPort]
					// Switch traversal takes this cycle; link traversal
					// adds the link's latency (the ST then LT stages).
					n.inbox[dst*P+inDir] = append(n.inbox[dst*P+inDir],
						arrival{f: f, t: now + 1 + int64(n.linkLatencyOf(id, outPort))})
					n.markBusy(dst)
				}

				// Return the freed buffer slot upstream as a credit.
				if inPort == topo.Local {
					n.nicredbox[id] = append(n.nicredbox[id],
						creditEvt{port: topo.Local, vc: inVC, t: now + 1})
					n.markBusy(id)
				} else {
					up := r.downstream[inPort] // neighbour feeding this input
					upPort := n.opp[inPort]
					n.credbox[up] = append(n.credbox[up],
						creditEvt{port: upPort, vc: inVC, t: now + 1})
					n.markBusy(up)
				}

				if f.typ.IsTail() {
					if !v.empty() {
						panic("noc: flits behind tail in VC — wormhole invariant broken")
					}
					r.out[v.outPort][v.outVC].occupied = false
					v.state = vcIdle
					r.busyVCs--
				}
			}
		}
	}
}

// vcAllocation grants free output VCs to input VCs whose route is computed.
// An output VC is reallocated only when unoccupied with full credits, which
// keeps each VC buffer single-packet (atomic VC allocation). When the
// routing algorithm carries a VC policy, the packet's message-class
// partition is further restricted to the route class's sub-partition
// (dateline escape VCs on torus/circulant rings).
func (n *Network) vcAllocation(ids []int) {
	nVC := n.cfg.VCs
	P := n.P
	reqSpace := P * nVC
	for _, id := range ids {
		r := n.routers[id]
		if !r.active || !n.powered(id) {
			continue
		}
		if !n.scanAll && r.busyVCs == 0 {
			continue // no VC awaiting allocation (see switchAllocation)
		}
		// Same prescan-and-early-exit shape as switchAllocation: count the
		// vcVA requesters per output port up front (new vcVA states only
		// appear later, in routeCompute) and stop each port sweep once all
		// of them have been visited.
		pending := n.pendingBuf
		if n.scanAll {
			for p := range pending {
				pending[p] = reqSpace
			}
		} else {
			for p := range pending {
				pending[p] = 0
			}
			for p := range r.in {
				for v := range r.in[p] {
					ivc := &r.in[p][v]
					if ivc.state == vcVA {
						pending[ivc.outPort]++
					}
				}
			}
		}
		for outPort := 0; outPort < P; outPort++ {
			for k := 0; k < reqSpace && pending[outPort] > 0; k++ {
				idx := (r.vaPtr[outPort] + k) % reqSpace
				inPort := idx / nVC
				inVC := idx % nVC
				v := &r.in[inPort][inVC]
				if v.state != vcVA || v.outPort != outPort {
					continue
				}
				pending[outPort]--
				head := v.buf[0]
				lo := head.pkt.Class * n.cfg.vcsPerClass()
				span := n.cfg.vcsPerClass()
				if n.vcClassFn != nil {
					sub := span / n.vcClasses
					lo += n.vcClassFn(id, head.pkt.Dst) * sub
					span = sub
				}
				outVC := r.freeOutputVC(outPort, lo, span)
				if outVC < 0 {
					continue // this class's VCs are exhausted this cycle
				}
				r.out[outPort][outVC].occupied = true
				v.outVC = outVC
				v.state = vcActive
				r.events.VAGrants++
				r.vaPtr[outPort] = (idx + 1) % reqSpace
			}
		}
	}
}

// freeOutputVC returns a grantable VC index within the class partition
// [lo, lo+span) on outPort (round-robin), or -1.
func (r *router) freeOutputVC(outPort, lo, span int) int {
	for k := 0; k < span; k++ {
		vc := lo + (r.vaVCPtr[outPort]+k)%span
		o := &r.out[outPort][vc]
		full := outPort == topo.Local || o.credits == cap(r.in[0][0].buf)
		if !o.occupied && full {
			r.vaVCPtr[outPort] = (vc - lo + 1) % span
			return vc
		}
	}
	return -1
}

// routeCompute computes output ports for head flits newly buffered.
func (n *Network) routeCompute(ids []int) {
	for _, id := range ids {
		r := n.routers[id]
		if !r.active || !n.powered(id) {
			continue
		}
		if !n.scanAll && r.busyVCs == 0 {
			continue // no VC awaiting route compute (see switchAllocation)
		}
		for p := range r.in {
			for v := range r.in[p] {
				ivc := &r.in[p][v]
				if ivc.state != vcRoute || ivc.empty() {
					continue
				}
				head := ivc.buf[0]
				if !head.typ.IsHead() {
					panic("noc: non-head flit at route compute")
				}
				port, err := n.alg.NextPort(id, head.pkt.Dst)
				if err != nil {
					panic(fmt.Sprintf("noc: routing failure at router %d for packet %d->%d: %v",
						id, head.pkt.Src, head.pkt.Dst, err))
				}
				ivc.outPort = port
				ivc.state = vcVA
			}
		}
	}
}

// deliverFlits performs buffer writes for flits whose link traversal
// completes this cycle, and ejections into NIs.
func (n *Network) deliverFlits(now int64, ids []int) {
	P := n.P
	for _, id := range ids {
		r := n.routers[id]
		for p := 0; p < P; p++ {
			box := n.inbox[id*P+p]
			k := 0
			for _, ev := range box {
				if ev.t > now {
					box[k] = ev
					k++
					continue
				}
				// Runtime gating: an arrival at a gated router triggers
				// wake-up and waits out the power-on latency.
				if !n.wakeArrival(id, now) {
					box[k] = ev
					k++
					continue
				}
				// The checker sees the arrival before the simulator's own
				// gating panic so a dark-router violation is reported with a
				// full snapshot instead of a bare panic string.
				if n.probe != nil {
					n.probe.FlitArrived(n, id, p, ev.f.pkt, ev.f.typ, ev.f.vc)
				}
				r.checkGated()
				v := &r.in[p][ev.f.vc]
				v.push(ev.f, n.cfg.BufferDepth)
				r.events.BufferWrites++
				if ev.f.typ.IsHead() {
					if v.state != vcIdle {
						panic("noc: head flit into busy VC")
					}
					v.state = vcRoute
					r.busyVCs++
				}
			}
			n.inbox[id*P+p] = box[:k]
		}

		// Ejections: the NI consumes arrivals immediately.
		ebox := n.eject[id]
		k := 0
		for _, ev := range ebox {
			if ev.t > now {
				ebox[k] = ev
				k++
				continue
			}
			// During a reconfiguration drain, a node being retired can no
			// longer consume traffic: flits reaching its NI traversed the
			// fabric normally (credits and buffers all accounted) but are
			// discarded here as dropped rather than delivered.
			if n.dropDst != nil && n.dropDst[id] {
				n.stats.FlitsDropped++
				n.classDropped[ev.f.pkt.Class]++
				if n.probe != nil {
					n.probe.FlitEjected(n, id, ev.f.pkt, ev.f.typ.IsTail(), true)
				}
				if ev.f.typ.IsTail() {
					n.stats.PacketsDropped++
				}
				continue
			}
			n.stats.FlitsEjected++
			n.classEjected[ev.f.pkt.Class]++
			if n.probe != nil {
				n.probe.FlitEjected(n, id, ev.f.pkt, ev.f.typ.IsTail(), false)
			}
			if ev.f.typ.IsTail() {
				pkt := ev.f.pkt
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
		n.eject[id] = ebox[:k]
	}
}

// inject moves flits from source queues into router Local input ports, one
// flit per node per cycle.
func (n *Network) inject(now int64, ids []int) {
	for _, id := range ids {
		nic := n.nis[id]
		if !nic.active {
			continue
		}
		if nic.cur == nil && len(nic.queue) > 0 && !n.quiesced {
			// Serve the oldest packet whose class still has a free VC;
			// classes are independent, so a stalled class must not block
			// the others at the source (order within a class is kept).
			for qi, pkt := range nic.queue {
				vc := n.freeInjectionVC(id, pkt.Class)
				if vc < 0 {
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
		typ := Body
		switch {
		case pkt.Length == 1:
			typ = HeadTail
		case nic.curSeq == 0:
			typ = Head
		case nic.curSeq == pkt.Length-1:
			typ = Tail
		}
		f := flit{pkt: pkt, typ: typ, seq: nic.curSeq, vc: nic.curVC}
		nic.credits[nic.curVC]--
		n.inbox[id*n.P+topo.Local] = append(n.inbox[id*n.P+topo.Local], arrival{f: f, t: now + 1})
		n.markBusy(id)
		n.stats.FlitsInjected++
		if n.probe != nil {
			n.probe.FlitInjected(n, id, pkt, f.seq)
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
	lo := class * n.cfg.vcsPerClass()
	for k := 0; k < n.cfg.vcsPerClass(); k++ {
		vc := lo + k
		if nic.credits[vc] == n.cfg.BufferDepth && r.in[topo.Local][vc].state == vcIdle {
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
