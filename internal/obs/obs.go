// Package obs is the simulator's telemetry layer: cycle-sampled time series
// and typed event timelines. A Collector is a noc.Probe, attached through
// Network.SetProbe like internal/check's invariant checker, and the two can
// watch one network together.
//
// A Collector counts injections, ejections, and drops as they happen (a few
// integer increments per event) and, every Interval cycles, snapshots a
// Sample: window flit counts, per-router and region utilization, mean queue
// depth, active-router count, and — when models are configured — network
// power and die temperature from an incremental lumped RC step. All sample
// storage is preallocated flat buffers, so steady-state Step stays at zero
// allocations per operation with a collector attached; and because the
// hooks never mutate the network, instrumented runs are bit-identical to
// uninstrumented ones (the zero-drift suites at the noc, core, and golden
// layers pin both properties).
//
// A Recorder owns the configuration for one sweep and hands out one labeled
// Collector per simulated network; after the sweep it serializes every
// collector to JSONL or CSV (see recorder.go).
package obs

import (
	"fmt"
	"math"

	"nocsprint/internal/noc"
	"nocsprint/internal/power"
	"nocsprint/internal/thermal"
)

// PowerModel converts a sample window's event deltas into network power.
type PowerModel struct {
	// Params are the router energy/leakage parameters.
	Params power.RouterParams
	// Corner is the operating point the sampled routers run at.
	Corner power.Corner
}

// ThermalModel drives an incremental lumped RC + PCM step per sample window,
// producing the temperature series and thermal trip/clear events.
type ThermalModel struct {
	// Model is the chip-level RC model.
	Model thermal.Lumped
	// SecondsPerCycle converts the sample window's cycle count into the RC
	// step duration. Must be finite and positive.
	SecondsPerCycle float64
	// BasePowerW is constant power added to the sampled network power each
	// step (cores, uncore) so the die temperature reflects chip activity,
	// not just the interconnect.
	BasePowerW float64
	// TripK/ClearK arm the trip comparator with hysteresis; zero TripK
	// disables trip events.
	TripK, ClearK float64
}

// A Collector preallocates room for sampleCap samples and eventCap
// timeline events; runs beyond either still record, at the cost of a buffer
// growth.
const (
	sampleCap = 1024
	eventCap  = 64
)

// Config parameterizes a Collector.
type Config struct {
	// Interval is the sampling period in cycles (default 1000).
	Interval int
	// Power, when non-nil, fills Sample.PowerW.
	Power *PowerModel
	// Thermal, when non-nil, fills Sample.TempK and emits trip events.
	Thermal *ThermalModel
}

func (c Config) withDefaults() Config {
	if c.Interval == 0 {
		c.Interval = 1000
	}
	return c
}

// Validate reports the first invalid configuration field, or nil.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Interval < 1 {
		return fmt.Errorf("obs: sampling interval %d < 1", c.Interval)
	}
	if c.Power != nil {
		if err := c.Power.Corner.Validate(); err != nil {
			return fmt.Errorf("obs: power model: %w", err)
		}
	}
	if t := c.Thermal; t != nil {
		if err := t.Model.Validate(); err != nil {
			return fmt.Errorf("obs: thermal model: %w", err)
		}
		if !(t.SecondsPerCycle > 0) || math.IsInf(t.SecondsPerCycle, 1) {
			return fmt.Errorf("obs: seconds per cycle %g not finite and positive", t.SecondsPerCycle)
		}
		if !(t.BasePowerW >= 0) || math.IsInf(t.BasePowerW, 1) {
			return fmt.Errorf("obs: base power %g not finite and non-negative", t.BasePowerW)
		}
		if t.TripK != 0 {
			s, err := thermal.NewLumpedState(t.Model)
			if err != nil {
				return fmt.Errorf("obs: thermal model: %w", err)
			}
			if err := s.SetHysteresis(t.TripK, t.ClearK); err != nil {
				return fmt.Errorf("obs: %w", err)
			}
		}
	}
	return nil
}

// Sample is one telemetry interval. Cycle stamps the end of the window (the
// number of cycles the observed network had completed when the sample was
// taken, relative to collector attachment) and Window its length — the final
// sample of a run may cover a short window when Finish flushes a partial
// interval.
type Sample struct {
	Cycle  int64 `json:"cycle"`
	Window int64 `json:"window"`
	// InjectedFlits/InjectedPackets count NI->router issues in the window;
	// EjectedFlits/EjectedPackets count deliveries; DroppedFlits counts
	// reconfiguration black-hole drops.
	InjectedFlits   int64 `json:"injected_flits"`
	InjectedPackets int64 `json:"injected_packets"`
	EjectedFlits    int64 `json:"ejected_flits"`
	EjectedPackets  int64 `json:"ejected_packets"`
	DroppedFlits    int64 `json:"dropped_flits"`
	// ActiveRouters is the powered-router population at the sample boundary.
	ActiveRouters int `json:"active_routers"`
	// BufferedFlits is the flit population of powered routers' input buffers
	// at the sample boundary; QueueDepth is the same per active router.
	BufferedFlits int64   `json:"buffered_flits"`
	QueueDepth    float64 `json:"queue_depth"`
	// MeshUtil is crossbar traversals per router-cycle over the whole mesh;
	// RegionUtil the same over powered routers only.
	MeshUtil   float64 `json:"mesh_util"`
	RegionUtil float64 `json:"region_util"`
	// PowerW/TempK are filled when the respective model is configured.
	PowerW float64 `json:"power_w"`
	TempK  float64 `json:"temp_k"`
}

// Collector implements noc.Probe. It belongs to exactly one network (the
// one it was built for) and is not safe for concurrent use — each sweep
// point runs on one goroutine, matching the simulator's own model.
type Collector struct {
	label    string
	interval int64
	routers  int

	// Window accumulators, bumped by the per-event hooks.
	injFlits, injPkts, ejFlits, ejPkts, dropFlits int64
	winCycles                                     int64
	// lastCycle counts completed observed cycles; net remembers the observed
	// network so Finish can flush a partial final window.
	lastCycle int64
	net       *noc.Network

	// prev snapshots per-router event counters at the last boundary, so each
	// sample sees only its own window's deltas.
	prev []noc.Events

	samples []Sample
	// perRouter stores per-router utilization rows flat: sample i's row is
	// perRouter[i*routers : (i+1)*routers].
	perRouter []float64

	events []Event

	pw          *PowerModel
	th          *ThermalModel
	thermState  *thermal.LumpedState
	prevTripped bool
}

// newCollector builds a collector for net; cfg must have been validated.
func newCollector(cfg Config, label string, net *noc.Network) *Collector {
	cfg = cfg.withDefaults()
	routers := net.Topo().Nodes()
	c := &Collector{
		label:     label,
		interval:  int64(cfg.Interval),
		routers:   routers,
		lastCycle: 0,
		net:       net,
		prev:      make([]noc.Events, routers),
		samples:   make([]Sample, 0, sampleCap),
		perRouter: make([]float64, 0, sampleCap*routers),
		events:    make([]Event, 0, eventCap),
		pw:        cfg.Power,
		th:        cfg.Thermal,
	}
	// Prime the per-router baselines so the first window measures only
	// cycles this collector actually observed (attachment mid-run included).
	for id := 0; id < routers; id++ {
		c.prev[id] = net.RouterEvents(id)
	}
	if c.th != nil {
		// cfg was validated, so construction cannot fail here.
		c.thermState, _ = thermal.NewLumpedState(c.th.Model)
		if c.th.TripK != 0 {
			_ = c.thermState.SetHysteresis(c.th.TripK, c.th.ClearK)
		}
	}
	return c
}

// Label returns the collector's sweep-point label.
func (c *Collector) Label() string { return c.label }

// Interval returns the sampling period in cycles.
func (c *Collector) Interval() int { return int(c.interval) }

// Routers returns the observed mesh size.
func (c *Collector) Routers() int { return c.routers }

var _ noc.Probe = (*Collector)(nil)

// FlitArrived implements noc.Probe; telemetry does not sample arrivals.
func (c *Collector) FlitArrived(*noc.Network, int, int, *noc.Packet, noc.FlitType, int) {}

// CreditDelivered implements noc.Probe; telemetry does not sample credits.
func (c *Collector) CreditDelivered(*noc.Network, int, int, int, int) {}

// FlitInjected implements noc.Probe.
func (c *Collector) FlitInjected(n *noc.Network, node int, pkt *noc.Packet, seq int) {
	c.injFlits++
	if seq == 0 {
		c.injPkts++
	}
}

// FlitEjected implements noc.Probe.
func (c *Collector) FlitEjected(n *noc.Network, node int, pkt *noc.Packet, tail, dropped bool) {
	if dropped {
		c.dropFlits++
		return
	}
	c.ejFlits++
	if tail {
		c.ejPkts++
	}
}

// CycleEnd implements noc.Probe: it closes the window and takes a sample
// every Interval observed cycles.
func (c *Collector) CycleEnd(n *noc.Network, cycle int64) {
	c.net = n
	c.lastCycle++
	c.winCycles++
	if c.winCycles >= c.interval {
		c.sample(n)
	}
}

// Emit appends a typed event to the timeline. The governor, fault driver,
// and reconfiguration paths call it; tests and tools may too. node < 0 means
// the event is chip-wide.
func (c *Collector) Emit(cycle int64, kind EventKind, node int, detail string) {
	c.events = append(c.events, Event{Cycle: cycle, Kind: kind, Node: node, Detail: detail})
}

// Finish flushes a partial final window, if any. It is idempotent and called
// automatically by the serializers; after Finish the collector keeps
// observing if its network keeps stepping.
func (c *Collector) Finish() {
	if c.winCycles > 0 && c.net != nil {
		c.sample(c.net)
	}
}

// sample closes the current window: per-router event deltas, utilization,
// queue depth, and the optional power/thermal step. It must not allocate in
// steady state — everything appends into preallocated buffers and the power
// total comes from the alloc-free power.NetworkPowerTotal.
func (c *Collector) sample(n *noc.Network) {
	window := c.winCycles
	var delta noc.Events
	var meshX, regionX int64
	active := 0
	for id := 0; id < c.routers; id++ {
		ev := n.RouterEvents(id)
		d := ev.Sub(c.prev[id])
		c.prev[id] = ev
		delta.Add(d)
		c.perRouter = append(c.perRouter, float64(d.XbarTraversals)/float64(window))
		meshX += d.XbarTraversals
		if n.RouterActive(id) {
			regionX += d.XbarTraversals
			active++
		}
	}
	s := Sample{
		Cycle:           c.lastCycle,
		Window:          window,
		InjectedFlits:   c.injFlits,
		InjectedPackets: c.injPkts,
		EjectedFlits:    c.ejFlits,
		EjectedPackets:  c.ejPkts,
		DroppedFlits:    c.dropFlits,
		ActiveRouters:   active,
		BufferedFlits:   n.BufferedFlits(),
	}
	s.MeshUtil = float64(meshX) / (float64(window) * float64(c.routers))
	if active > 0 {
		s.RegionUtil = float64(regionX) / (float64(window) * float64(active))
		s.QueueDepth = float64(s.BufferedFlits) / float64(active)
	}
	if c.pw != nil {
		if total, err := c.pw.Params.NetworkPowerTotal(delta, window, active, c.pw.Corner); err == nil {
			s.PowerW = total
		}
	}
	if c.th != nil {
		// Inputs are validated (window > 0, SecondsPerCycle > 0, powers
		// non-negative), so the step cannot fail.
		_ = c.thermState.Step(s.PowerW+c.th.BasePowerW, float64(window)*c.th.SecondsPerCycle)
		s.TempK = c.thermState.TempK()
		if tripped := c.thermState.Tripped(); tripped != c.prevTripped {
			if tripped {
				c.Emit(c.lastCycle, EventThermalTrip, -1, "")
			} else {
				c.Emit(c.lastCycle, EventThermalClear, -1, "")
			}
			c.prevTripped = tripped
		}
	}
	c.samples = append(c.samples, s)
	c.injFlits, c.injPkts, c.ejFlits, c.ejPkts, c.dropFlits = 0, 0, 0, 0, 0
	c.winCycles = 0
}

// Samples returns the recorded series. The slice is the collector's own
// storage: read, don't mutate.
func (c *Collector) Samples() []Sample { return c.samples }

// Events returns the recorded event timeline (collector storage; read-only).
func (c *Collector) Events() []Event { return c.events }

// RouterUtil returns sample i's per-router utilization row (crossbar
// traversals per cycle, indexed by router ID). The slice aliases collector
// storage; read, don't mutate.
func (c *Collector) RouterUtil(i int) []float64 {
	return c.perRouter[i*c.routers : (i+1)*c.routers]
}
