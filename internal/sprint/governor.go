package sprint

import (
	"fmt"
	"sort"

	"nocsprint/internal/topo"
)

// The sprint governor: the online-repair policy that keeps a sprint region
// alive under faults. It re-runs Algorithm 1 restricted to the surviving
// nodes — the convex-region structure is exactly what makes reroute-around-
// failure tractable: excluding failed nodes and re-growing yields a smaller
// region the escape-channel routing can still cover deadlock-free. The
// governor is pure policy over Regions; applying a reform to a network
// (quiesce/drain/reconfigure) is the caller's job.

// ActivationOrderOver runs Algorithm 1 restricted to the surviving nodes:
// the ids of m for which alive(id) is true, sorted by ascending distance
// from master (ties by node index). The master, when alive, is first.
func ActivationOrderOver(m *topo.Mesh, master int, metric Metric, alive func(int) bool) []int {
	mc := m.Coord(master)
	order := make([]int, 0, m.Nodes())
	for id := 0; id < m.Nodes(); id++ {
		if alive(id) {
			order = append(order, id)
		}
	}
	dist := func(id int) int {
		c := m.Coord(id)
		if metric == Hamming {
			return c.Hamming(mc)
		}
		return c.EuclideanSq(mc)
	}
	sort.SliceStable(order, func(a, b int) bool {
		da, db := dist(order[a]), dist(order[b])
		if da != db {
			return da < db
		}
		return order[a] < order[b]
	})
	return order
}

// NewRegionOver grows a sprint region over the surviving nodes only: the
// level closest survivors to master under metric. Unlike NewRegion its
// inputs are runtime values (fault outcomes), so it returns errors instead
// of panicking. The region's Order lists survivors only; failed nodes are
// treated exactly like out-of-mesh positions.
func NewRegionOver(m *topo.Mesh, master, level int, metric Metric, alive func(int) bool) (*Region, error) {
	if master < 0 || master >= m.Nodes() {
		return nil, fmt.Errorf("sprint: master node %d outside mesh", master)
	}
	if !alive(master) {
		return nil, fmt.Errorf("sprint: master node %d is not alive", master)
	}
	order := ActivationOrderOver(m, master, metric, alive)
	if level < 1 || level > len(order) {
		return nil, fmt.Errorf("sprint: level %d outside [1,%d] survivors", level, len(order))
	}
	active := make([]bool, m.Nodes())
	for _, id := range order[:level] {
		active[id] = true
	}
	return &Region{mesh: m, master: master, level: level, order: order, active: active}, nil
}

// GovernorEventKind classifies governor log entries.
type GovernorEventKind int

// Governor event kinds.
const (
	// GovRepair is a successful region re-formation after a fault.
	GovRepair GovernorEventKind = iota
	// GovMasterElection records a new master elected after the old one died.
	GovMasterElection
	// GovDegrade is a thermal-trip sprint-level step-down.
	GovDegrade
	// GovResumeScheduled records a transient fault with its first retry time.
	GovResumeScheduled
	// GovResumeFailed is a resume attempt that found the node still sick.
	GovResumeFailed
	// GovResumed is a transient node successfully brought back.
	GovResumed
	// GovDeclaredDead is a transient fault promoted to permanent after the
	// retry budget ran out.
	GovDeclaredDead
)

func (k GovernorEventKind) String() string {
	switch k {
	case GovRepair:
		return "repair"
	case GovMasterElection:
		return "master-election"
	case GovDegrade:
		return "degrade"
	case GovResumeScheduled:
		return "resume-scheduled"
	case GovResumeFailed:
		return "resume-failed"
	case GovResumed:
		return "resumed"
	case GovDeclaredDead:
		return "declared-dead"
	default:
		return fmt.Sprintf("GovernorEventKind(%d)", int(k))
	}
}

// GovernorEvent is one entry of the governor's decision log.
type GovernorEvent struct {
	// Cycle is when the decision was made.
	Cycle int64
	// Kind classifies the decision.
	Kind GovernorEventKind
	// Node is the node the decision concerns, or -1.
	Node int
	// Detail is a human-readable note.
	Detail string
}

// The repair policy: a transiently faulted node gets maxResumeRetries failed
// resume attempts before it is declared permanently failed. The first attempt
// comes resumeBackoff cycles after the fault, and each failed attempt doubles
// the wait, so retry r waits resumeBackoff<<r cycles (128, 256 and 512).
const (
	maxResumeRetries = 3
	resumeBackoff    = 64
)

// GovernorConfig wires the caller's hooks into the repair policy.
type GovernorConfig struct {
	// Validate, when non-nil, accepts or rejects a candidate reformed
	// region — the caller wires in routing validation (every pair routable,
	// channel-dependency graph acyclic) without sprint importing routing.
	// The governor shrinks the level until a candidate passes; a one-node
	// region must always validate.
	Validate func(*Region) error
	// OnEvent, when non-nil, is called synchronously with every decision as
	// it is appended to the log — telemetry timelines subscribe here. The
	// callback must not call back into the governor.
	OnEvent func(GovernorEvent)
}

// Governor tracks node health and maintains a valid sprint region across
// faults. All methods are deterministic: the same fault sequence yields the
// same decisions, elections, and regions.
type Governor struct {
	mesh   *topo.Mesh
	metric Metric
	cfg    GovernorConfig
	master int
	level  int // target level; the region may be smaller if validation forced a shrink
	failed []bool
	down   []bool // out of service now: failed, or transient awaiting resume
	retry  []int
	// resumeAt[id] is the cycle of the next resume attempt, or -1.
	resumeAt []int64
	region   *Region
	events   []GovernorEvent
}

// NewGovernor builds a governor over an initially healthy mesh sprinting at
// level from master.
func NewGovernor(m *topo.Mesh, master, level int, metric Metric, cfg GovernorConfig) (*Governor, error) {
	g := &Governor{
		mesh:     m,
		metric:   metric,
		cfg:      cfg,
		master:   master,
		level:    level,
		failed:   make([]bool, m.Nodes()),
		down:     make([]bool, m.Nodes()),
		retry:    make([]int, m.Nodes()),
		resumeAt: make([]int64, m.Nodes()),
	}
	for i := range g.resumeAt {
		g.resumeAt[i] = -1
	}
	r, err := NewRegionOver(m, master, level, metric, g.alive)
	if err != nil {
		return nil, err
	}
	if cfg.Validate != nil {
		if err := cfg.Validate(r); err != nil {
			return nil, fmt.Errorf("sprint: initial region rejected: %w", err)
		}
	}
	g.region = r
	return g, nil
}

// Region returns the current sprint region.
func (g *Governor) Region() *Region { return g.region }

// Master returns the current master node.
func (g *Governor) Master() int { return g.master }

// CountEvents returns how many log entries have the given kind.
func (g *Governor) CountEvents(kind GovernorEventKind) int {
	n := 0
	for _, e := range g.events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

func (g *Governor) alive(id int) bool { return !g.down[id] }

func (g *Governor) log(cycle int64, kind GovernorEventKind, node int, detail string) {
	ev := GovernorEvent{
		Cycle: cycle, Kind: kind, Node: node, Detail: detail,
	}
	g.events = append(g.events, ev)
	if g.cfg.OnEvent != nil {
		g.cfg.OnEvent(ev)
	}
}

// PermanentFault records a fail-stop router fault and re-forms the region.
// The returned region is the repaired one; changed reports whether it
// differs from the region before the call (a fault on an already-down node
// changes nothing).
func (g *Governor) PermanentFault(node int, cycle int64) (*Region, bool, error) {
	if node < 0 || node >= g.mesh.Nodes() {
		return g.region, false, fmt.Errorf("sprint: fault at node %d outside mesh", node)
	}
	if g.failed[node] {
		return g.region, false, nil
	}
	g.failed[node] = true
	already := g.down[node]
	g.down[node] = true
	g.resumeAt[node] = -1
	if already {
		// Was awaiting a transient resume; now it never comes back, but the
		// current region already excludes it.
		g.log(cycle, GovDeclaredDead, node, "transient fault promoted by permanent fault")
		return g.region, false, nil
	}
	if err := g.reform(cycle, fmt.Sprintf("permanent fault at node %d", node)); err != nil {
		return g.region, false, err
	}
	return g.region, true, nil
}

// LinkFault records a permanent link fault. CDOR's restricted turn set
// cannot route around a missing in-region link, so the policy retires the
// endpoint farther from the master (ties: higher id) and keeps the nearer
// one — graceful degradation that preserves the convex-region structure.
func (g *Governor) LinkFault(a, b int, cycle int64) (*Region, bool, error) {
	if a < 0 || a >= g.mesh.Nodes() || b < 0 || b >= g.mesh.Nodes() || a == b {
		return g.region, false, fmt.Errorf("sprint: link fault %d-%d outside mesh", a, b)
	}
	victim := a
	mc := g.mesh.Coord(g.master)
	da, db := g.mesh.Coord(a).EuclideanSq(mc), g.mesh.Coord(b).EuclideanSq(mc)
	if db > da || (db == da && b > a) {
		victim = b
	}
	// If the farther endpoint is already down, the link loss is absorbed by
	// retiring the other endpoint only when both sides still matter; a link
	// with a dead endpoint carries no traffic.
	if g.down[victim] {
		other := a + b - victim
		if g.down[other] {
			return g.region, false, nil
		}
		victim = other
	}
	return g.PermanentFault(victim, cycle)
}

// TransientFault records a soft router fault: the node goes out of service
// now and a resume attempt is scheduled resumeBackoff cycles later.
func (g *Governor) TransientFault(node int, cycle int64) (*Region, bool, error) {
	if node < 0 || node >= g.mesh.Nodes() {
		return g.region, false, fmt.Errorf("sprint: fault at node %d outside mesh", node)
	}
	if g.down[node] {
		return g.region, false, nil
	}
	g.down[node] = true
	g.retry[node] = 0
	g.resumeAt[node] = cycle + resumeBackoff
	g.log(cycle, GovResumeScheduled, node, fmt.Sprintf("retry at cycle %d", g.resumeAt[node]))
	if err := g.reform(cycle, fmt.Sprintf("transient fault at node %d", node)); err != nil {
		return g.region, false, err
	}
	return g.region, true, nil
}

// PendingResume returns the lowest-id node whose resume attempt is due at
// cycle, or -1.
func (g *Governor) PendingResume(cycle int64) int {
	for id, at := range g.resumeAt {
		if at >= 0 && at <= cycle {
			return id
		}
	}
	return -1
}

// TryResume performs a due resume attempt: healthy brings the node back
// into service (and possibly back into the region); unhealthy doubles the
// wait, and once the retry budget is exhausted the node is declared
// permanently failed. changed reports whether the region was re-formed.
func (g *Governor) TryResume(node int, cycle int64, healthy bool) (*Region, bool, error) {
	if node < 0 || node >= g.mesh.Nodes() || g.resumeAt[node] < 0 {
		return g.region, false, fmt.Errorf("sprint: no resume pending for node %d", node)
	}
	if healthy {
		g.down[node] = false
		g.retry[node] = 0
		g.resumeAt[node] = -1
		g.log(cycle, GovResumed, node, "node healthy again")
		before := g.region
		if err := g.reform(cycle, fmt.Sprintf("node %d resumed", node)); err != nil {
			return g.region, false, err
		}
		return g.region, g.region != before, nil
	}
	g.retry[node]++
	if g.retry[node] > maxResumeRetries {
		g.resumeAt[node] = -1
		g.failed[node] = true
		g.log(cycle, GovDeclaredDead, node,
			fmt.Sprintf("still unhealthy after %d retries", maxResumeRetries))
		// The node is already out of the region; nothing to re-form.
		return g.region, false, nil
	}
	g.resumeAt[node] = cycle + resumeBackoff<<g.retry[node]
	g.log(cycle, GovResumeFailed, node, fmt.Sprintf("retry %d at cycle %d", g.retry[node], g.resumeAt[node]))
	return g.region, false, nil
}

// ThermalTrip records a thermal emergency: the sprint level steps down by one
// (graceful degradation) and the region re-forms accordingly. At level 1
// there is nothing left to shed and the trip changes nothing.
func (g *Governor) ThermalTrip(cycle int64) (*Region, bool, error) {
	if g.level == 1 {
		g.log(cycle, GovDegrade, -1, "already at level 1; nothing to shed")
		return g.region, false, nil
	}
	g.level--
	g.log(cycle, GovDegrade, -1, fmt.Sprintf("thermal trip: level stepped down to %d", g.level))
	before := g.region
	if err := g.reform(cycle, "thermal degradation"); err != nil {
		return g.region, false, err
	}
	return g.region, g.region != before, nil
}

// reform rebuilds the region over the survivors: elect a new master if the
// current one died (the survivor closest to the old master, ties by lower
// id), clamp the level to the survivor count, and shrink it further until
// the candidate region is convex and passes the configured validation. A
// one-node region is trivially convex and must validate, so reform succeeds
// whenever any node survives.
func (g *Governor) reform(cycle int64, why string) error {
	survivors := 0
	for id := range g.down {
		if !g.down[id] {
			survivors++
		}
	}
	if survivors == 0 {
		return fmt.Errorf("sprint: no surviving nodes (%s)", why)
	}
	if g.down[g.master] {
		oldMaster := g.master
		mc := g.mesh.Coord(oldMaster)
		best, bestDist := -1, 0
		for id := 0; id < g.mesh.Nodes(); id++ {
			if g.down[id] {
				continue
			}
			d := g.mesh.Coord(id).EuclideanSq(mc)
			if best == -1 || d < bestDist {
				best, bestDist = id, d
			}
		}
		g.master = best
		g.log(cycle, GovMasterElection, best, fmt.Sprintf("master %d died; elected %d", oldMaster, best))
	}
	lvl := g.level
	if lvl > survivors {
		lvl = survivors
	}
	var lastErr error
	for ; lvl >= 1; lvl-- {
		r, err := NewRegionOver(g.mesh, g.master, lvl, g.metric, g.alive)
		if err != nil {
			lastErr = err
			continue
		}
		// Faults can punch holes Algorithm 1 would have to grow around;
		// requiring convexity keeps the repaired region inside the class the
		// paper's routing argument (and our deadlock checker) covers.
		if !r.IsConvex() {
			lastErr = fmt.Errorf("sprint: level-%d survivor region not convex", lvl)
			continue
		}
		if g.cfg.Validate != nil {
			if err := g.cfg.Validate(r); err != nil {
				lastErr = err
				continue
			}
		}
		g.region = r
		g.log(cycle, GovRepair, -1, fmt.Sprintf("%s: region re-formed at level %d", why, lvl))
		return nil
	}
	return fmt.Errorf("sprint: could not re-form region (%s): %v", why, lastErr)
}
