// Package obs is the simulator's telemetry layer: cycle-sampled time series
// and typed event timelines. A Collector is a noc.Probe, attached through
// Network.SetProbe like internal/check's invariant checker, and the two can
// watch one network together.
//
// Every Interval cycles a Collector snapshots a Sample from the network's own
// counters: window flit and packet counts, per-router and region
// utilization, mean queue depth, active-router count, and — when models are
// configured — network power and die temperature from an incremental lumped
// RC step. Samples append to flat buffers that start small and double when
// full, so a collector costs memory in proportion to what it records, and
// Step allocates only at those doublings — none between them; and because
// the hooks never mutate the network, instrumented runs are bit-identical to
// uninstrumented ones (internal/noc's zero-drift suite pins both properties,
// and the registry-wide zero-drift test in cmd/nocsprint the second for
// every experiment).
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
// Each collector prices the routers of the network it watches, with the
// 45 nm parameters of that network's own geometry
// (power.DefaultRouterParams45nm of its noc.Config).
type PowerModel struct {
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

// A Collector starts with room for sampleCap samples (and their per-router
// rows) and eventCap timeline events, and grows each buffer by append when
// it fills. The start is small because a sweep keeps every collector until
// it is written out, and a fault-sweep point records about 50 samples.
const (
	sampleCap = 64
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

// WithDefaults returns c with a zero Interval set to its default of 1000
// cycles, the value every collector samples at unless told otherwise.
func (c Config) WithDefaults() Config {
	if c.Interval == 0 {
		c.Interval = 1000
	}
	return c
}

// Validate reports the first invalid configuration field, or nil.
func (c Config) Validate() error {
	c = c.WithDefaults()
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
	// reconfiguration drops. Each is the window's delta of the matching
	// noc.Stats counter.
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

	// winCycles counts the observed cycles of the open window; lastCycle
	// counts all completed observed cycles; net remembers the observed
	// network so Finish can flush a partial final window.
	winCycles int64
	lastCycle int64
	net       *noc.Network

	// prevStats and prevXbar snapshot the network's statistics and each
	// router's crossbar traversals at the last boundary, so each sample sees
	// only its own window's deltas.
	prevStats noc.Stats
	prevXbar  []int64

	samples []Sample
	// perRouter stores per-router utilization rows flat: sample i's row is
	// perRouter[i*routers : (i+1)*routers].
	perRouter []float64

	events []Event

	pw          *PowerModel
	params      power.RouterParams // the watched routers' model, priced with pw
	th          *ThermalModel
	thermState  *thermal.LumpedState
	prevTripped bool
}

// newCollector builds a collector for net; cfg must have been validated.
func newCollector(cfg Config, label string, net *noc.Network) *Collector {
	cfg = cfg.WithDefaults()
	routers := net.Topo().Nodes()
	c := &Collector{
		label:     label,
		interval:  int64(cfg.Interval),
		routers:   routers,
		net:       net,
		prevStats: net.Stats(),
		prevXbar:  make([]int64, routers),
		samples:   make([]Sample, 0, sampleCap),
		perRouter: make([]float64, 0, sampleCap*routers),
		events:    make([]Event, 0, eventCap),
		pw:        cfg.Power,
		params:    power.DefaultRouterParams45nm(net.Config()),
		th:        cfg.Thermal,
	}
	// Prime the baselines so the first window measures only cycles this
	// collector actually observed (attachment mid-run included).
	for id := 0; id < routers; id++ {
		c.prevXbar[id] = net.RouterEvents(id).XbarTraversals
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

var _ noc.Probe = (*Collector)(nil)

// FlitArrived implements noc.Probe; telemetry does not sample arrivals.
func (c *Collector) FlitArrived(*noc.Network, int, int, *noc.Packet, noc.FlitType, int) {}

// CreditDelivered implements noc.Probe; telemetry does not sample credits.
func (c *Collector) CreditDelivered(*noc.Network, int, int, int, int) {}

// FlitInjected implements noc.Probe; samples read injections off noc.Stats.
func (c *Collector) FlitInjected(*noc.Network, int, *noc.Packet, int) {}

// FlitEjected implements noc.Probe; samples read ejections and drops off
// noc.Stats.
func (c *Collector) FlitEjected(*noc.Network, int, *noc.Packet, bool, bool) {}

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

// sample closes the current window: the network's counter deltas,
// utilization, queue depth, and the optional power/thermal step. It
// allocates only when a buffer fills and append grows it.
func (c *Collector) sample(n *noc.Network) {
	window := c.winCycles
	st := n.Stats()
	delta := st.Sub(c.prevStats)
	c.prevStats = st
	var meshX, regionX int64
	active := 0
	for id := 0; id < c.routers; id++ {
		x := n.RouterEvents(id).XbarTraversals
		d := x - c.prevXbar[id]
		c.prevXbar[id] = x
		c.perRouter = append(c.perRouter, float64(d)/float64(window))
		meshX += d
		if n.RouterActive(id) {
			regionX += d
			active++
		}
	}
	s := Sample{
		Cycle:           c.lastCycle,
		Window:          window,
		InjectedFlits:   delta.FlitsInjected,
		InjectedPackets: delta.PacketsInjected,
		EjectedFlits:    delta.FlitsEjected,
		EjectedPackets:  delta.PacketsEjected,
		DroppedFlits:    delta.FlitsDropped,
		ActiveRouters:   active,
		BufferedFlits:   n.BufferedFlits(),
	}
	s.MeshUtil = float64(meshX) / (float64(window) * float64(c.routers))
	if active > 0 {
		s.RegionUtil = float64(regionX) / (float64(window) * float64(active))
		s.QueueDepth = float64(s.BufferedFlits) / float64(active)
	}
	if c.pw != nil {
		if b, err := c.params.NetworkPower(delta.Events, window, active, c.pw.Corner); err == nil {
			s.PowerW = b.Total()
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
	c.winCycles = 0
}

// Samples returns the recorded series. The slice is the collector's own
// storage: read, don't mutate.
func (c *Collector) Samples() []Sample { return c.samples }

// RouterUtil returns sample i's per-router utilization row (crossbar
// traversals per cycle, indexed by router ID). The slice aliases collector
// storage; read, don't mutate.
func (c *Collector) RouterUtil(i int) []float64 {
	return c.perRouter[i*c.routers : (i+1)*c.routers]
}
