// Package check implements the runtime invariant-checking layer for the NoC
// simulator. A Checker is a noc.Probe: it attaches to a noc.Network via
// Network.SetProbe (beside any other probe, such as a telemetry collector)
// and observes every flit movement, credit return, and cycle boundary,
// enforcing the guarantees the paper's design rests on:
//
//   - flit/packet conservation per message class (nothing created is lost),
//   - credit accounting (credits bounded by buffer depth, never negative),
//   - dark-router silence (power-gated routers see no traffic, §3.1),
//   - hop discipline against a route oracle: every observed hop must be
//     exactly the port the intended routing algorithm (CDOR, DOR, torus DOR,
//     ring-circulant, ...) would have chosen at that router — so the checker
//     works on any topology and rejects, rather than silently skips, hops it
//     cannot classify,
//   - a livelock/deadlock watchdog that dumps a readable network snapshot
//     when traffic stops making progress.
//
// Checking is purely observational: an attached checker never changes
// simulation results, and a network with no probe attached pays one pointer
// comparison per event, so production sweeps run with checks off by default.
package check

import (
	"fmt"

	"nocsprint/internal/noc"
	"nocsprint/internal/routing"
	"nocsprint/internal/sprint"
	"nocsprint/internal/topo"
)

// Kind classifies invariant violations.
type Kind int

const (
	// Conservation: per-class flit census no longer balances
	// (created != ejected + dropped + at-source + in-network).
	Conservation Kind = iota
	// Credit: a credit counter left [0, BufferDepth].
	Credit
	// DarkRouter: a power-gated router saw traffic — a power-domain
	// violation in the sprinting model.
	DarkRouter
	// RouteRule: a hop broke the routing discipline — it differed from the
	// route oracle's decision, or the oracle could not classify it at all.
	RouteRule
	// Watchdog: no forward progress for the configured number of cycles
	// while packets were in flight (deadlock or livelock).
	Watchdog
	// Structural: the network's internal consistency sweep
	// (noc.CheckInvariants) failed — buffer bounds, VC states, or
	// link-level credit conservation — or a flit arrived through a port
	// with no neighbour behind it.
	Structural
)

func (k Kind) String() string {
	switch k {
	case Conservation:
		return "conservation"
	case Credit:
		return "credit"
	case DarkRouter:
		return "dark-router"
	case RouteRule:
		return "route-rule"
	case Watchdog:
		return "watchdog"
	case Structural:
		return "structural"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Violation describes one invariant failure. The default handler panics with
// the *Violation so a failing sweep aborts loudly; tests install their own
// handler via Config.OnViolation.
type Violation struct {
	Kind   Kind
	Cycle  int64
	Detail string
	// Snapshot is the human-readable network-state dump taken at the
	// moment of the violation (noc.Network.Snapshot).
	Snapshot string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("check: cycle %d: %s violation: %s\n%s", v.Cycle, v.Kind, v.Detail, v.Snapshot)
}

// RouteOracle answers "which output port should a packet at cur take toward
// dst?" — the ground truth every observed hop is judged against. Any
// routing.Algorithm is an oracle via Oracle. The oracle must be the
// *intended* algorithm for the run; building it from a wrapped or
// instrumented algorithm would make the checker agree with the very
// misroutes it exists to catch.
type RouteOracle func(cur, dst int) (int, error)

// Oracle adapts a routing algorithm into a RouteOracle.
func Oracle(alg routing.Algorithm) RouteOracle { return alg.NextPort }

// Config selects which invariants to enforce and tunes the sweeps.
type Config struct {
	// Region, when set, enforces sprint-region containment: every flit
	// event must happen at an active node of the region.
	Region *sprint.Region
	// Oracle, when set, enforces hop discipline: every hop a flit takes
	// must be exactly the port the oracle picks at the upstream router.
	// A hop the oracle errors on is a violation, not a pass — unknown
	// traffic is rejected, never silently skipped. Nil disables hop
	// checking (containment, conservation, credits, and the watchdog still
	// run).
	Oracle RouteOracle
	// Interval is the period, in cycles, of the O(network-size) sweeps
	// (structural consistency and flit conservation). Per-event checks
	// run every cycle regardless. Defaults to 16.
	Interval int
	// WatchdogCycles is how long traffic may be in flight with no flit
	// movement before the watchdog declares a deadlock. Must comfortably
	// exceed the router wake-up latency when runtime gating is on.
	// Defaults to 2000.
	WatchdogCycles int
	// OnViolation, when set, receives each violation instead of the
	// default panic. The simulation continues, so a handler that records
	// and returns turns the checker into a violation counter.
	OnViolation func(*Violation)
}

// Checker enforces the invariants; it implements noc.Probe.
type Checker struct {
	cfg Config

	violations   int64
	lastProgress int64
	stalled      int
}

var _ noc.Probe = (*Checker)(nil)

// New builds a Checker. Attach it with net.SetProbe(New(cfg)).
func New(cfg Config) *Checker {
	if cfg.Interval <= 0 {
		cfg.Interval = 16
	}
	if cfg.WatchdogCycles <= 0 {
		cfg.WatchdogCycles = 2000
	}
	return &Checker{cfg: cfg, lastProgress: -1}
}

// Violations returns the number of violations reported so far (only ever
// more than one when Config.OnViolation suppresses the default panic).
func (c *Checker) Violations() int64 { return c.violations }

// SetRegion swaps the sprint region whose containment is enforced. The
// fault-repair path calls it right after each Network.Reconfigure so the
// checker stays attached — and stays strict — across every repair: the
// fabric is empty at that boundary, so no in-flight flit is ever judged
// against the wrong region. Passing nil disables region checks. Pair with
// SetOracle when the repair also changes the routing algorithm.
func (c *Checker) SetRegion(r *sprint.Region) { c.cfg.Region = r }

// SetOracle swaps the route oracle hops are judged against, for the same
// reconfiguration boundaries SetRegion serves. Passing nil disables hop
// checking.
func (c *Checker) SetOracle(o RouteOracle) { c.cfg.Oracle = o }

func (c *Checker) fail(n *noc.Network, kind Kind, format string, args ...any) {
	c.violations++
	v := &Violation{
		Kind:     kind,
		Cycle:    n.Cycle(),
		Detail:   fmt.Sprintf(format, args...),
		Snapshot: n.Snapshot(),
	}
	if c.cfg.OnViolation != nil {
		c.cfg.OnViolation(v)
		return
	}
	panic(v)
}

// FlitArrived checks dark-router silence, region containment, and the hop
// discipline of the configured route oracle.
func (c *Checker) FlitArrived(n *noc.Network, router, from int, pkt *noc.Packet, typ noc.FlitType, vc int) {
	if !n.RouterActive(router) {
		c.fail(n, DarkRouter, "flit %s of packet %d (%d->%d) delivered to power-gated router %d",
			typ, pkt.ID, pkt.Src, pkt.Dst, router)
		return
	}
	if c.cfg.Region != nil && !c.cfg.Region.Active(router) {
		c.fail(n, DarkRouter, "flit %s of packet %d (%d->%d) reached router %d outside the sprint region",
			typ, pkt.ID, pkt.Src, pkt.Dst, router)
		return
	}
	if from == topo.Local {
		// Injection from the node's own NI.
		if pkt.Src != router {
			c.fail(n, RouteRule, "packet %d with source %d injected at node %d", pkt.ID, pkt.Src, router)
		}
		return
	}
	tp := n.Topo()
	prev := tp.Neighbor(router, from)
	if prev < 0 {
		c.fail(n, Structural, "flit of packet %d arrived at router %d through port %s with no neighbour behind it",
			pkt.ID, router, tp.PortName(from))
		return
	}
	if c.cfg.Oracle == nil {
		return
	}
	// The flit sat at prev and left it through the opposite port to get
	// here; judge that hop against the oracle's decision at prev. A hop the
	// oracle cannot classify (it errors, e.g. a dark or out-of-region node)
	// is rejected outright rather than skipped: traffic the discipline
	// cannot explain is exactly what the checker exists to catch.
	port := tp.Opposite(from)
	want, err := c.cfg.Oracle(prev, pkt.Dst)
	if err != nil {
		c.fail(n, RouteRule, "hop %s at router %d for packet %d (%d->%d) is unclassifiable: %v",
			tp.PortName(port), prev, pkt.ID, pkt.Src, pkt.Dst, err)
		return
	}
	if want != port {
		c.fail(n, RouteRule, "hop %s at router %d violates the routing discipline for packet %d (%d->%d): oracle says %s",
			tp.PortName(port), prev, pkt.ID, pkt.Src, pkt.Dst, tp.PortName(want))
	}
}

// FlitInjected checks that sources only inject their own packets from
// powered, in-region nodes.
func (c *Checker) FlitInjected(n *noc.Network, node int, pkt *noc.Packet, seq int) {
	if !n.RouterActive(node) {
		c.fail(n, DarkRouter, "NI at power-gated node %d injected flit %d of packet %d", node, seq, pkt.ID)
		return
	}
	if c.cfg.Region != nil && !c.cfg.Region.Active(node) {
		c.fail(n, DarkRouter, "NI at node %d outside the sprint region injected packet %d", node, pkt.ID)
		return
	}
	if pkt.Src != node {
		c.fail(n, RouteRule, "node %d injected packet %d whose source is %d", node, pkt.ID, pkt.Src)
	}
}

// FlitEjected checks that flits only leave the network at their destination,
// delivered or black-holed there by a reconfiguration drain. The one other
// exit is a reconfiguration discarding a never-injected packet from its
// source queue, which is a drop at pkt.Src.
func (c *Checker) FlitEjected(n *noc.Network, node int, pkt *noc.Packet, tail, dropped bool) {
	if node == pkt.Dst || dropped && node == pkt.Src && pkt.InjectedAt == -1 {
		return
	}
	c.fail(n, RouteRule, "packet %d (%d->%d) ejected at node %d (dropped %v)", pkt.ID, pkt.Src, pkt.Dst, node, dropped)
}

// CreditDelivered checks the credit counter bounds eagerly, at the moment
// each credit lands (the periodic structural sweep additionally proves
// link-level credit conservation).
func (c *Checker) CreditDelivered(n *noc.Network, router, port, vc, credits int) {
	if depth := n.Config().BufferDepth; credits < 0 || credits > depth {
		c.fail(n, Credit, "credits for router %d port %s vc %d reached %d (buffer depth %d)",
			router, n.Topo().PortName(port), vc, credits, depth)
	}
}

// CycleEnd drives the watchdog every cycle and the O(network-size) sweeps
// every Interval cycles.
func (c *Checker) CycleEnd(n *noc.Network, cycle int64) {
	s := n.Stats()
	progress := s.FlitsInjected + s.FlitsEjected + s.Events.BufferReads + s.Events.BufferWrites
	if n.InFlight() > 0 && progress == c.lastProgress {
		c.stalled++
		if c.stalled >= c.cfg.WatchdogCycles {
			c.fail(n, Watchdog, "no flit movement for %d cycles with %d packets in flight",
				c.stalled, n.InFlight())
			c.stalled = 0
		}
	} else {
		c.stalled = 0
	}
	c.lastProgress = progress

	if cycle%int64(c.cfg.Interval) != 0 {
		return
	}
	if err := n.CheckInvariants(); err != nil {
		c.fail(n, Structural, "%v", err)
	}
	for class, cen := range n.FlitCensus() {
		if cen.Created != cen.Ejected+cen.Dropped+cen.AtSource+cen.InNetwork {
			c.fail(n, Conservation,
				"class %d: %d flits created but %d ejected + %d dropped + %d at source + %d in network",
				class, cen.Created, cen.Ejected, cen.Dropped, cen.AtSource, cen.InNetwork)
		}
	}
}
