// Package power models on-chip power in the style of the paper's tooling:
// a DSENT-like router/link model that converts the NoC simulator's
// micro-event counts into dynamic energy and adds state-dependent leakage,
// and a McPAT-like chip model (Niagara2-class) that breaks total chip power
// into core, L2, memory-controller, NoC, and other components.
//
// All constants are calibrated to 45 nm-class magnitudes. The reproduction
// targets the paper's *relative* results (component shares, savings
// percentages, dynamic-vs-leakage crossovers), which depend on scaling laws
// (dynamic ∝ αCV²f, leakage ∝ V·Ileak) rather than absolute calibration.
package power

import (
	"encoding/json"
	"fmt"
	"math"

	"nocsprint/internal/noc"
)

// Corner is an operating point: supply voltage and clock frequency.
type Corner struct {
	// VDD is the supply voltage in volts.
	VDD float64
	// FreqHz is the clock frequency in hertz.
	FreqHz float64
}

// The paper's Figure 2 corners under 45 nm technology.
var (
	// Nominal is 1.0 V / 2 GHz, the sprinting operating point (Table 1).
	Nominal = Corner{VDD: 1.0, FreqHz: 2e9}
	// Mid is 0.9 V / 1.5 GHz.
	Mid = Corner{VDD: 0.9, FreqHz: 1.5e9}
	// Low is 0.75 V / 1 GHz.
	Low = Corner{VDD: 0.75, FreqHz: 1e9}
)

// Validate reports the first invalid corner field, or nil: VDD and the
// frequency must be finite and positive.
func (c Corner) Validate() error {
	if !(c.VDD > 0) || math.IsInf(c.VDD, 1) {
		return fmt.Errorf("power: VDD %g not finite and positive", c.VDD)
	}
	if !(c.FreqHz > 0) || math.IsInf(c.FreqHz, 1) {
		return fmt.Errorf("power: frequency %g not finite and positive", c.FreqHz)
	}
	return nil
}

// Component identifies a router power component in breakdowns.
type Component int

// Router power components (Figure 2's breakdown granularity plus links).
const (
	Buffer Component = iota
	Crossbar
	Allocator
	ClockTree
	Link
	// Gating is the power-management overhead: wake-up energy of runtime
	// router power gating (zero for static region gating).
	Gating
	numComponents
)

// String returns the component name.
func (c Component) String() string {
	switch c {
	case Buffer:
		return "buffer"
	case Crossbar:
		return "crossbar"
	case Allocator:
		return "allocator"
	case ClockTree:
		return "clock"
	case Link:
		return "link"
	case Gating:
		return "gating"
	default:
		return fmt.Sprintf("Component(%d)", int(c))
	}
}

// MarshalText renders the component name in JSON map keys and text output.
func (c Component) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// Components lists all router power components.
func Components() []Component {
	out := make([]Component, numComponents)
	for i := range out {
		out[i] = Component(i)
	}
	return out
}

// RouterParams holds per-event energies (joules, at the nominal corner) and
// leakage powers (watts, at the nominal corner) for one router and its
// outgoing links.
type RouterParams struct {
	// Nominal is the corner the energies/leakages below are specified at.
	Nominal Corner
	// EBufferWrite/EBufferRead are per-flit buffer access energies.
	EBufferWrite, EBufferRead float64
	// EXbar is the per-flit crossbar traversal energy.
	EXbar float64
	// EArb is the per-grant allocator energy (VA or SA).
	EArb float64
	// EClock is the clock-tree energy per active cycle.
	EClock float64
	// ELink is the per-flit single-hop link traversal energy.
	ELink float64
	// LeakBuffer/LeakXbar/LeakArb/LeakClock/LeakLink are static powers of
	// a powered-on router at the nominal corner.
	LeakBuffer, LeakXbar, LeakArb, LeakClock, LeakLink float64
	// EWakeup is the energy of one runtime power-gating wake-up (power
	// switch ramp plus state restore).
	EWakeup float64
	// GatedRetention is the residual leakage fraction of a gated router
	// (retention cells and power switches).
	GatedRetention float64
}

// DefaultRouterParams45nm returns DSENT-class 45 nm parameters for a router
// with cfg's geometry: buffer energy and leakage scale with total buffering
// (ports × VCs × depth × flit bits), crossbar with flit width and radix.
func DefaultRouterParams45nm(cfg noc.Config) RouterParams {
	const ports = 5
	bits := float64(cfg.FlitBits)
	bufBits := float64(ports*cfg.VCs*cfg.BufferDepth) * bits
	return RouterParams{
		Nominal: Nominal,
		// Per-bit access energy ~5 fJ (write), ~4 fJ (read) at 45 nm.
		EBufferWrite: 5e-15 * bits,
		EBufferRead:  4e-15 * bits,
		// Crossbar traversal ~9 fJ/bit for a 5x5 128-bit switch.
		EXbar: 9e-15 * bits,
		EArb:  0.1e-12,
		// Clock tree toggles every active cycle.
		EClock: 1.2e-12,
		// 1 mm repeated wire ~6 fJ/bit.
		ELink: 6e-15 * bits,
		// Leakage: buffers dominate (~0.35 µW/bit of storage), then
		// crossbar, clock, links. At the nominal corner and 0.4
		// flits/cycle this yields a ~40 % leakage share, rising past 50 %
		// at 0.75 V / 1 GHz — Figure 2's crossover.
		LeakBuffer: 0.35e-6 * bufBits,
		LeakXbar:   0.8e-3,
		LeakArb:    0.15e-3,
		LeakClock:  0.6e-3,
		LeakLink:   0.4e-3,
		// Wake-up costs roughly ten cycles of full router activity.
		EWakeup:        25e-12,
		GatedRetention: 0.05,
	}
}

// Breakdown is a power result split into dynamic and leakage watts per
// component, indexed by Component.
type Breakdown struct {
	DynamicW [numComponents]float64
	LeakageW [numComponents]float64
}

// TotalDynamic returns summed dynamic power in watts.
func (b Breakdown) TotalDynamic() float64 { return sum(b.DynamicW) }

// TotalLeakage returns summed leakage power in watts.
func (b Breakdown) TotalLeakage() float64 { return sum(b.LeakageW) }

// Total returns total power in watts.
func (b Breakdown) Total() float64 { return b.TotalDynamic() + b.TotalLeakage() }

// sum adds component values in enum order, so every total is bit-for-bit
// reproducible.
func sum(a [numComponents]float64) float64 {
	var s float64
	for _, v := range a {
		s += v
	}
	return s
}

// MarshalJSON writes each array as an object keyed by component name, in
// name order. Gating appears only when it is non-zero: only runtime gating
// charges it.
func (b Breakdown) MarshalJSON() ([]byte, error) {
	named := func(a [numComponents]float64) map[Component]float64 {
		m := make(map[Component]float64, len(a))
		for c, v := range a {
			if v != 0 || Component(c) != Gating {
				m[Component(c)] = v
			}
		}
		return m
	}
	return json.Marshal(struct{ DynamicW, LeakageW map[Component]float64 }{named(b.DynamicW), named(b.LeakageW)})
}

// dynScale returns the dynamic-energy scale factor (V/V0)² and leakScale
// the leakage-power factor (V/V0) for corner vs nominal. Leakage grows
// roughly linearly with VDD in the near-threshold range the paper sweeps.
func (p RouterParams) dynScale(c Corner) float64 {
	r := c.VDD / p.Nominal.VDD
	return r * r
}

func (p RouterParams) leakScale(c Corner) float64 { return c.VDD / p.Nominal.VDD }

// RouterPower converts event counts accumulated over the given number of
// cycles into average power at corner. Leakage is charged for the full
// interval (the router is powered on throughout); a power-gated router
// contributes nothing and should simply not be passed in.
func (p RouterParams) RouterPower(events noc.Events, cycles int64, corner Corner) (Breakdown, error) {
	return p.NetworkPower(events, cycles, 1, corner)
}

// NetworkPower sums RouterPower over the powered routers of a finished
// simulation: activeRouters counts powered routers (gated ones contribute
// nothing), events holds network-wide event totals over the window. Dynamic
// energy is already network-wide (event totals); the clock tree toggles in
// every active router, and leakage accrues per router. Gating stays zero:
// only runtime gating charges it. It allocates nothing, so the telemetry
// sampler calls it inside the simulator's zero-allocation steady state.
func (p RouterParams) NetworkPower(events noc.Events, cycles int64, activeRouters int, corner Corner) (Breakdown, error) {
	var b Breakdown
	if activeRouters < 0 {
		return b, fmt.Errorf("power: negative router count %d", activeRouters)
	}
	if err := corner.Validate(); err != nil {
		return b, err
	}
	if cycles <= 0 {
		return b, fmt.Errorf("power: non-positive cycle count %d", cycles)
	}
	ds, ls := p.dynScale(corner), p.leakScale(corner)
	seconds := float64(cycles) / corner.FreqHz
	ar := float64(activeRouters)
	dyn, leak := &b.DynamicW, &b.LeakageW

	dyn[Buffer] = ds * (float64(events.BufferWrites)*p.EBufferWrite + float64(events.BufferReads)*p.EBufferRead) / seconds
	dyn[Crossbar] = ds * float64(events.XbarTraversals) * p.EXbar / seconds
	dyn[Allocator] = ds * float64(events.SAGrants+events.VAGrants) * p.EArb / seconds
	dyn[ClockTree] = ds * float64(cycles) * p.EClock / seconds * ar
	dyn[Link] = ds * float64(events.LinkFlits) * p.ELink / seconds

	leak[Buffer] = ls * p.LeakBuffer * ar
	leak[Crossbar] = ls * p.LeakXbar * ar
	leak[Allocator] = ls * p.LeakArb * ar
	leak[ClockTree] = ls * p.LeakClock * ar
	leak[Link] = ls * p.LeakLink * ar
	return b, nil
}

// SyntheticRouterEvents returns the per-cycle event profile of one router
// forwarding traffic at the given flit arrival rate (flits/cycle), as used
// for the standalone Figure 2 experiment: every flit is written, read,
// crossed, granted once, and leaves on a link; heads additionally take a VA
// grant (1 per packetLength flits).
func SyntheticRouterEvents(rate float64, cycles int64, packetLength int) noc.Events {
	flits := int64(rate * float64(cycles))
	return noc.Events{
		BufferWrites:   flits,
		BufferReads:    flits,
		XbarTraversals: flits,
		LinkFlits:      flits,
		SAGrants:       flits,
		VAGrants:       flits / int64(packetLength),
	}
}

// NetworkPowerRuntimeGated computes network power under conventional
// traffic-driven router power gating: leakage and clock power accrue only
// over powered router-cycles (plus retention leakage while gated), and each
// wake-up costs EWakeup. onCycleSum is the total powered router-cycles over
// the window (≤ routers×cycles); wakeups counts power-on events.
func (p RouterParams) NetworkPowerRuntimeGated(events noc.Events, cycles int64, routers int, onCycleSum, wakeups int64, corner Corner) (Breakdown, error) {
	if onCycleSum < 0 || onCycleSum > int64(routers)*cycles {
		return Breakdown{}, fmt.Errorf("power: on-cycles %d outside [0, %d]", onCycleSum, int64(routers)*cycles)
	}
	if wakeups < 0 {
		return Breakdown{}, fmt.Errorf("power: negative wakeup count")
	}
	full, err := p.NetworkPower(events, cycles, routers, corner)
	if err != nil {
		return Breakdown{}, err
	}
	total := float64(routers) * float64(cycles)
	onFrac := 1.0
	if total > 0 {
		onFrac = float64(onCycleSum) / total
	}
	effFrac := onFrac + (1-onFrac)*p.GatedRetention
	b := full
	for c := range b.LeakageW {
		b.LeakageW[c] *= effFrac
	}
	// The clock tree toggles only in powered routers.
	b.DynamicW[ClockTree] *= onFrac
	seconds := float64(cycles) / corner.FreqHz
	b.DynamicW[Gating] = p.dynScale(corner) * float64(wakeups) * p.EWakeup / seconds
	return b, nil
}
