package noc

import "fmt"

// Runtime power gating: the conventional traffic-driven router gating the
// paper's §2 surveys (NoRD, Catnap, router parking, look-ahead gating).
// Each powered router independently gates off after a stretch of idle
// cycles and pays a wake-up latency when the next flit reaches it. This is
// the baseline NoC-sprinting argues against: it does not know the core
// status, so routers on active paths repeatedly gate and wake, adding
// latency, while NoC-sprinting's region gating is free of wake-ups because
// CDOR keeps every packet inside the powered region.

// GatingConfig parameterises runtime router power gating.
type GatingConfig struct {
	// IdleThreshold is the number of consecutive idle cycles after which a
	// router gates off.
	IdleThreshold int
	// WakeupLatency is the power-on delay a flit suffers when it reaches a
	// gated router.
	WakeupLatency int
	// BreakEvenCycles is the minimum gated period that amortises the
	// gating energy overhead; shorter gated periods are counted as
	// uneconomic (reported in stats, used by the power model's wake-up
	// energy term).
	BreakEvenCycles int
}

// DefaultGatingConfig returns parameters in the range the cited schemes
// use: ~8-cycle wake-up, break-even around ten wake-up latencies.
func DefaultGatingConfig() GatingConfig {
	return GatingConfig{IdleThreshold: 16, WakeupLatency: 8, BreakEvenCycles: 80}
}

// Validate reports the first invalid field, or nil.
func (g GatingConfig) Validate() error {
	if g.IdleThreshold < 1 || g.WakeupLatency < 1 || g.BreakEvenCycles < 0 {
		return fmt.Errorf("noc: invalid gating config %+v", g)
	}
	return nil
}

// powerState is a router's runtime gating state.
type powerState uint8

const (
	powerOn powerState = iota
	powerOff
	powerWaking
)

// gatingState is the per-router runtime-gating bookkeeping.
type gatingState struct {
	state     powerState
	idle      int   // consecutive idle cycles while on
	wakeAt    int64 // cycle the router finishes waking
	gatedAt   int64 // cycle the current gated period began
	onCycles  int64
	offCycles int64
	wakeups   int64
	shortOffs int64 // gated periods shorter than break-even
}

// GatingStats aggregates runtime-gating activity for power accounting.
type GatingStats struct {
	// Enabled reports whether runtime gating was active.
	Enabled bool
	// OnCycles / OffCycles sum router-cycles spent powered / gated.
	OnCycles, OffCycles int64
	// Wakeups counts power-on events.
	Wakeups int64
	// ShortOffs counts gated periods below break-even (energy-negative).
	ShortOffs int64
}

// OnFraction returns the fraction of router-cycles spent powered on, or 1
// when gating never ran.
func (g GatingStats) OnFraction() float64 {
	total := g.OnCycles + g.OffCycles
	if total == 0 {
		return 1
	}
	return float64(g.OnCycles) / float64(total)
}

// EnableRuntimeGating switches the network to conventional traffic-driven
// router power gating. It must be called before the first Step.
func (n *Network) EnableRuntimeGating(cfg GatingConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if n.cycle != 0 {
		return fmt.Errorf("noc: runtime gating must be enabled before simulation starts")
	}
	n.gatingCfg = cfg
	n.gating = make([]gatingState, len(n.routers))
	return nil
}

// GatingStats returns aggregate runtime-gating counters.
func (n *Network) GatingStats() GatingStats {
	if n.gating == nil {
		return GatingStats{}
	}
	var s GatingStats
	s.Enabled = true
	for i := range n.gating {
		g := &n.gating[i]
		s.OnCycles += g.onCycles
		s.OffCycles += g.offCycles
		s.Wakeups += g.wakeups
		s.ShortOffs += g.shortOffs
	}
	return s
}

// powered reports whether router id can operate this cycle (pipeline stages
// run only on powered routers).
func (n *Network) powered(id int) bool {
	if n.gating == nil {
		return true
	}
	return n.gating[id].state == powerOn
}

// wakeArrival handles a flit reaching router id: if the router is gated it
// begins waking and the arrival must wait; returns true when the flit can
// be delivered now.
func (n *Network) wakeArrival(id int, now int64) bool {
	if n.gating == nil {
		return true
	}
	g := &n.gating[id]
	switch g.state {
	case powerOn:
		return true
	case powerOff:
		g.state = powerWaking
		g.wakeAt = now + int64(n.gatingCfg.WakeupLatency)
		g.wakeups++
		if now-g.gatedAt < int64(n.gatingCfg.BreakEvenCycles) {
			g.shortOffs++
		}
		return false
	default: // powerWaking
		if now >= g.wakeAt {
			g.state = powerOn
			g.idle = 0
			return true
		}
		return false
	}
}

// updateGating advances idle counters and gates idle routers. Called once
// per cycle after flit delivery.
func (n *Network) updateGating(now int64) {
	if n.gating == nil {
		return
	}
	for id, r := range n.routers {
		if !r.active {
			continue // statically gated by the sprint region: not counted
		}
		g := &n.gating[id]
		switch g.state {
		case powerOn:
			g.onCycles++
			if r.occupancy() == 0 && r.busyVCs == 0 && !n.pendingTraffic(id) {
				g.idle++
				if g.idle >= n.gatingCfg.IdleThreshold {
					g.state = powerOff
					g.gatedAt = now
				}
			} else {
				g.idle = 0
			}
		case powerOff:
			g.offCycles++
		case powerWaking:
			// Ramp-up burns power; count as on.
			g.onCycles++
			if now >= g.wakeAt {
				g.state = powerOn
				g.idle = 0
			}
		}
	}
}

// pendingTraffic reports whether router id has flits in flight toward it or
// a local source mid-packet — gating then would be immediately undone.
func (n *Network) pendingTraffic(id int) bool {
	nic := n.nis[id]
	return n.routers[id].inMask != 0 || nic.active && (nic.cur != nil || len(nic.queue) > 0)
}
