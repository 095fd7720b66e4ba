package cache

import (
	"context"
	"fmt"

	"nocsprint/internal/mesh"
	"nocsprint/internal/noc"
	"nocsprint/internal/sprint"
)

// HomePolicy selects where cache lines are homed during a sprint (§3.4).
type HomePolicy int

// Home policies for dark-tile banks.
const (
	// HomeAllTiles interleaves homes over every bank. During a sprint,
	// lines homed at dark tiles are reached through bypass paths that do
	// not wake the gated routers (the paper's adopted technique).
	HomeAllTiles HomePolicy = iota
	// HomeActiveOnly re-interleaves homes over the active region's banks:
	// no bypass hardware needed, but LLC capacity shrinks with the region.
	HomeActiveOnly
)

// String returns the policy name.
func (p HomePolicy) String() string {
	switch p {
	case HomeAllTiles:
		return "all-tiles+bypass"
	case HomeActiveOnly:
		return "active-only"
	default:
		return fmt.Sprintf("HomePolicy(%d)", int(p))
	}
}

// Message classes on the NoC: requests ride class 0, data class 1 —
// the standard protocol-class split that prevents request/reply
// interference.
const (
	classReq  = 0
	classData = 1
)

// Tag space: core miss tags are (lineAddr<<1)|write and must stay below
// memTagBase; bank→memory transactions use memTagBase+n; writebacks are
// fire-and-forget.
const (
	memTagBase   = int64(1) << 40
	writebackTag = int64(-2)
)

// Stats aggregates memory-system activity.
type Stats struct {
	Accesses, L1Hits   int64
	L2Hits, L2Misses   int64
	Writebacks         int64
	BypassTransfers    int64
	BypassFlits        int64
	StallCycles        int64
	CompletedResponses int64
}

// L1MissRate returns misses/accesses.
func (s Stats) L1MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Accesses-s.L1Hits) / float64(s.Accesses)
}

// L2MissRate returns L2 misses over L2 lookups.
func (s Stats) L2MissRate() float64 {
	total := s.L2Hits + s.L2Misses
	if total == 0 {
		return 0
	}
	return float64(s.L2Misses) / float64(total)
}

// AMAT returns the average memory access time in cycles (1 + stalls per
// access, for a blocking in-order core).
func (s Stats) AMAT() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return 1 + float64(s.StallCycles)/float64(s.Accesses)
}

// coreCtl is one active core: an L1, its access stream, and the blocking
// miss state.
type coreCtl struct {
	node    int
	l1      *Array
	stream  *Stream
	blocked bool
	// pendingWrite records whether the outstanding miss was a store (the
	// fill installs dirty).
	pendingWrite bool
	pendingLine  uint64
	remaining    int64
	stallStart   int64
}

// bankCtl is one tile's L2 bank.
type bankCtl struct {
	node int
	l2   *Array
	dark bool // gated tile: reachable only via bypass
}

// txn tracks an outstanding L2-miss transaction at a bank.
type txn struct {
	bank     int
	line     uint64
	reqCore  int
	reqWrite bool
}

// System is the tiled memory hierarchy driving a NoC.
type System struct {
	cfg    Config
	net    *noc.Network
	m      mesh.Mesh
	region *sprint.Region
	policy HomePolicy
	gated  bool
	mcNode int

	cores     map[int]*coreCtl
	coreOrder []int
	banks     []*bankCtl
	homes     []int // bank nodes homes interleave over

	txns    map[int64]*txn
	nextTxn int64

	// events holds deferred actions keyed by absolute cycle.
	events map[int64][]func()

	stats Stats
}

// NewSystem builds the memory system for the given sprint region and home
// policy. The network must be configured with two message classes; active
// cores get streams from mkStream(node). The memory controller sits at the
// master node. routersGated selects whether the network outside the region
// is power-gated: if so, messages touching dark tiles use the bypass path;
// if not (full-sprinting), they ride the network like any other.
func NewSystem(cfg Config, net *noc.Network, region *sprint.Region, policy HomePolicy,
	routersGated bool, mkStream func(node int) *Stream) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if net.Config().Classes < 2 {
		return nil, fmt.Errorf("cache: network needs >= 2 message classes, has %d", net.Config().Classes)
	}
	m := region.Mesh()
	s := &System{
		cfg:    cfg,
		net:    net,
		m:      m,
		region: region,
		policy: policy,
		gated:  routersGated,
		mcNode: region.Master(),
		cores:  make(map[int]*coreCtl),
		txns:   make(map[int64]*txn),
		events: make(map[int64][]func()),
	}
	for _, node := range region.ActiveNodes() {
		s.cores[node] = &coreCtl{
			node:   node,
			l1:     NewArray(cfg.L1Sets, cfg.L1Ways),
			stream: mkStream(node),
		}
		s.coreOrder = append(s.coreOrder, node)
	}
	s.banks = make([]*bankCtl, m.Nodes())
	for node := 0; node < m.Nodes(); node++ {
		s.banks[node] = &bankCtl{
			node: node,
			l2:   NewArray(cfg.L2Sets, cfg.L2Ways),
			dark: !region.Active(node),
		}
	}
	switch policy {
	case HomeAllTiles:
		for node := 0; node < m.Nodes(); node++ {
			s.homes = append(s.homes, node)
		}
	case HomeActiveOnly:
		s.homes = append(s.homes, region.ActiveNodes()...)
	default:
		return nil, fmt.Errorf("cache: unknown home policy %v", policy)
	}
	net.SetSink(s.deliver)
	return s, nil
}

// Home returns the bank node homing lineAddr.
func (s *System) Home(lineAddr uint64) int {
	return s.homes[lineAddr%uint64(len(s.homes))]
}

// bankLine converts a global line address to the bank-local index used for
// set selection: interleaved banks only ever see addresses congruent to
// their own id, so indexing sets with the global address would alias onto
// a fraction of the sets.
func (s *System) bankLine(lineAddr uint64) uint64 {
	return lineAddr / uint64(len(s.homes))
}

// Stats returns a snapshot of the counters.
func (s *System) Stats() Stats { return s.stats }

// schedule defers fn by delay cycles.
func (s *System) schedule(delay int, fn func()) {
	at := s.net.Cycle() + int64(delay)
	s.events[at] = append(s.events[at], fn)
}

// send transmits a protocol message, using the network between active
// nodes and the bypass path when either endpoint is a dark tile under the
// all-tiles policy.
func (s *System) send(src, dst, class, flits int, tag int64) {
	srcDark := !s.region.Active(src)
	dstDark := !s.region.Active(dst)
	if s.gated && (srcDark || dstDark) {
		// Bypass path: fixed per-hop latency, no router wake-ups; counted
		// separately for the power model.
		hops := s.m.HammingID(src, dst)
		delay := s.cfg.BypassBaseCycles + s.cfg.BypassPerHopCycles*hops + flits - 1
		s.stats.BypassTransfers++
		s.stats.BypassFlits += int64(flits)
		p := &noc.Packet{Src: src, Dst: dst, Class: class, Tag: tag, Length: flits}
		s.schedule(delay, func() { s.deliver(p) })
		return
	}
	p := s.net.EnqueuePacket(src, dst, class, flits)
	p.Tag = tag
}

// deliver dispatches an arriving protocol message (network sink callback or
// bypass completion).
func (s *System) deliver(p *noc.Packet) {
	switch p.Class {
	case classReq:
		if p.Dst == s.mcNode && p.Tag >= memTagBase {
			// Memory request from a bank (tags >= 2^40 mark L2 misses).
			tag := p.Tag
			s.schedule(s.cfg.MemCycles, func() {
				t := s.txns[tag]
				if t == nil {
					return
				}
				s.send(s.mcNode, t.bank, classData, s.cfg.DataFlits, tag)
			})
			return
		}
		// L1 miss request arriving at its home bank.
		s.bankRequest(p)
	case classData:
		if p.Tag == writebackTag {
			// Writebacks are absorbed at their destination; the timing
			// cost is the traffic itself.
			return
		}
		if t, ok := s.txns[p.Tag]; ok && p.Dst == t.bank {
			// Memory fill arriving at the bank.
			s.bankFill(p.Tag)
			return
		}
		s.coreFill(p)
	}
}

// bankRequest serves an L1 miss at the home bank.
func (s *System) bankRequest(p *noc.Packet) {
	bank := s.banks[p.Dst]
	lineAddr := uint64(p.Tag) >> 1
	write := p.Tag&1 == 1
	reqCore := p.Src
	bankLine := s.bankLine(lineAddr)
	s.schedule(s.cfg.L2HitCycles, func() {
		if bank.l2.Access(bankLine, false) {
			s.stats.L2Hits++
			s.send(bank.node, reqCore, classData, s.cfg.DataFlits, p.Tag)
			return
		}
		s.stats.L2Misses++
		s.nextTxn++
		tag := memTagBase + s.nextTxn
		s.txns[tag] = &txn{bank: bank.node, line: lineAddr, reqCore: reqCore, reqWrite: write}
		s.send(bank.node, s.mcNode, classReq, s.cfg.ReqFlits, tag)
	})
}

// bankFill installs a memory fill at the bank and forwards data to the
// requesting core.
func (s *System) bankFill(tag int64) {
	t := s.txns[tag]
	if t == nil {
		return
	}
	delete(s.txns, tag)
	bank := s.banks[t.bank]
	victim, victimDirty, evicted := bank.l2.Install(s.bankLine(t.line), false)
	if evicted && victimDirty {
		s.stats.Writebacks++
		s.send(bank.node, s.mcNode, classData, s.cfg.DataFlits, writebackTag)
		_ = victim
	}
	coreTag := int64(t.line<<1) | boolBit(t.reqWrite)
	s.send(t.bank, t.reqCore, classData, s.cfg.DataFlits, coreTag)
}

// coreFill completes a core's outstanding miss.
func (s *System) coreFill(p *noc.Packet) {
	core, ok := s.cores[p.Dst]
	if !ok || !core.blocked {
		return
	}
	lineAddr := uint64(p.Tag) >> 1
	if lineAddr != core.pendingLine {
		return // stale (should not happen with blocking cores)
	}
	victim, victimDirty, evicted := core.l1.Install(lineAddr, core.pendingWrite)
	if evicted && victimDirty {
		s.stats.Writebacks++
		s.send(core.node, s.Home(victim), classData, s.cfg.DataFlits, writebackTag)
	}
	core.blocked = false
	s.stats.StallCycles += s.net.Cycle() - core.stallStart
	s.stats.CompletedResponses++
}

func boolBit(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// RunCtx drives the system: each active core issues accessesPerCore memory
// operations (blocking on misses), for at most maxCycles steps. The
// network's RunUntil runs the loop with phase as its done check, so the
// phase runs before every step and once more at cycle maxCycles: work
// finishing on the last permitted step succeeds. It returns an error if work
// remains unfinished at the horizon. ctx is polled before every step, so a
// cancelled LLC study stops at cycle granularity with the network left
// consistent. A nil ctx never cancels, and the poll never perturbs
// simulation state. The returned error satisfies errors.Is(err, ctx.Err())
// on cancellation.
func (s *System) RunCtx(ctx context.Context, accessesPerCore int64, maxCycles int64) error {
	for _, node := range s.coreOrder {
		s.cores[node].remaining = accessesPerCore
	}
	done, err := s.net.RunUntil(ctx, int(maxCycles), nil, s.phase)
	switch {
	case err != nil:
		return fmt.Errorf("cache: run %w", err)
	case !done:
		return fmt.Errorf("cache: %d-cycle horizon reached with work outstanding", maxCycles)
	}
	return nil
}

// phase is one cycle of the memory system before the network steps: it
// fires the events due now, lets every unblocked core issue its next
// access, and reports whether all work is done and the network drained.
func (s *System) phase() bool {
	now := s.net.Cycle()
	if evs, ok := s.events[now]; ok {
		delete(s.events, now)
		for _, fn := range evs {
			fn()
		}
	}
	done := true
	for _, node := range s.coreOrder {
		core := s.cores[node]
		if core.remaining <= 0 && !core.blocked {
			continue
		}
		done = false
		if core.blocked || core.remaining <= 0 {
			continue
		}
		lineAddr, write := core.stream.Next()
		core.remaining--
		s.stats.Accesses++
		if core.l1.Access(lineAddr, write) {
			s.stats.L1Hits++
			continue
		}
		// Blocking miss: request to the home bank.
		core.blocked = true
		core.pendingLine = lineAddr
		core.pendingWrite = write
		core.stallStart = now
		tag := int64(lineAddr<<1) | boolBit(write)
		s.send(core.node, s.Home(lineAddr), classReq, s.cfg.ReqFlits, tag)
	}
	return done && len(s.events) == 0 && s.net.Drained()
}

// Cycles returns the simulated cycle count.
func (s *System) Cycles() int64 { return s.net.Cycle() }

// NetworkStats exposes the underlying network statistics.
func (s *System) NetworkStats() noc.Stats { return s.net.Stats() }
