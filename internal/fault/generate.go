package fault

import (
	"fmt"
	"math"
	"math/rand"

	"nocsprint/internal/thermal"
	"nocsprint/internal/topo"
)

// GenConfig parameterises deterministic schedule generation over a mesh.
type GenConfig struct {
	// Horizon is the cycle range faults are placed in: every generated
	// event fires in [1, Horizon).
	Horizon int64
	// Permanent, Transient, and Links are the event counts per class.
	Permanent, Transient, Links int
	// TransientDuration is the outage length of each transient fault.
	TransientDuration int64
	// Seed drives the generator; equal configs yield equal schedules.
	Seed int64
}

// Generate builds a seeded, validated fault schedule on m: distinct victims
// drawn from every node of the mesh, fault cycles uniform over the horizon,
// link faults placed on a mesh edge incident to their victim. The output is
// fully determined by m's dimensions and cfg.
func Generate(m *topo.Mesh, cfg GenConfig) (*Schedule, error) {
	if cfg.Horizon < 2 {
		return nil, fmt.Errorf("fault: horizon %d leaves no room for faults", cfg.Horizon)
	}
	if cfg.Permanent < 0 || cfg.Transient < 0 || cfg.Links < 0 {
		return nil, fmt.Errorf("fault: negative event counts")
	}
	if cfg.Transient > 0 && cfg.TransientDuration < 1 {
		return nil, fmt.Errorf("fault: transient faults need a duration >= 1")
	}
	// Each link fault can retire either endpoint, so it consumes its victim
	// and one neighbour from the survivable budget.
	need := cfg.Permanent + cfg.Transient + 2*cfg.Links
	if need >= m.Nodes() {
		return nil, fmt.Errorf("fault: %d potential casualties would not leave a survivor in %d nodes",
			need, m.Nodes())
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	victims := topo.AllNodes(m.Nodes())
	rng.Shuffle(len(victims), func(i, j int) { victims[i], victims[j] = victims[j], victims[i] })

	used := make(map[int]bool)
	takeVictim := func() int {
		v := victims[0]
		victims = victims[1:]
		used[v] = true
		return v
	}
	cycle := func() int64 { return 1 + rng.Int63n(cfg.Horizon-1) }

	// Link faults are placed first, while the casualty set is smallest: each
	// needs a victim with an un-faulted neighbour to pair with, which is
	// near-guaranteed before router faults consume the pool and would often
	// be impossible after.
	var events []Event
	for i := 0; i < cfg.Links; i++ {
		// Skip victims whose every neighbour is already a casualty — pairing
		// with one would let the schedule retire the whole mesh.
		v, partner := -1, -1
		for v == -1 && len(victims) > 0 {
			cand := takeVictim()
			for _, nb := range m.Neighbors(cand) {
				if !used[nb] {
					v, partner = cand, nb
					break
				}
			}
		}
		if v == -1 {
			return nil, fmt.Errorf("fault: no victim with an un-faulted neighbour left for link fault %d", i)
		}
		used[partner] = true
		events = append(events, Event{Cycle: cycle(), Kind: LinkPermanent, Node: -1, A: v, B: partner})
	}
	for i := 0; i < cfg.Permanent; i++ {
		if len(victims) == 0 {
			return nil, fmt.Errorf("fault: victim pool exhausted before permanent fault %d", i)
		}
		events = append(events, Event{Cycle: cycle(), Kind: RouterPermanent, Node: takeVictim(), A: -1, B: -1})
	}
	for i := 0; i < cfg.Transient; i++ {
		if len(victims) == 0 {
			return nil, fmt.Errorf("fault: victim pool exhausted before transient fault %d", i)
		}
		events = append(events, Event{
			Cycle: cycle(), Kind: RouterTransient, Node: takeVictim(), A: -1, B: -1,
			Duration: cfg.TransientDuration,
		})
	}
	return New(m.Nodes(), events)
}

// TripFromLumped derives a thermal-emergency trip event from the lumped RC
// model: it steps a thermal.LumpedState at constant powerW from ambient, one
// step of secondsPerCycle per simulation cycle, and returns the first cycle
// at which the die has reached tripK. The second result is false when the
// die stays below tripK for all horizon cycles — the sprint is thermally
// sustainable at that level and no trip fires. These are the states
// Lumped.Timeline samples at one sample per step, tested in the same order,
// so the trip cycle is the one a scan of that timeline finds; the search
// keeps one state instead of the timeline and allocates nothing.
func TripFromLumped(l thermal.Lumped, powerW, tripK, secondsPerCycle float64, horizon int64) (Event, bool, error) {
	s, err := thermal.NewLumpedState(l)
	if err != nil {
		return Event{}, false, err
	}
	if !(secondsPerCycle > 0) || math.IsInf(secondsPerCycle, 1) || horizon < 1 {
		return Event{}, false, fmt.Errorf("fault: invalid trip scaling (%g s/cycle over %d cycles)",
			secondsPerCycle, horizon)
	}
	if !(tripK > l.AmbientK && tripK <= l.MaxK) {
		return Event{}, false, fmt.Errorf("fault: trip temperature %g K outside (ambient %g, max %g]",
			tripK, l.AmbientK, l.MaxK)
	}
	if !(powerW >= 0) || math.IsInf(powerW, 1) {
		return Event{}, false, fmt.Errorf("fault: trip power %g W not finite and non-negative", powerW)
	}
	// The die starts at ambient, below tripK, so cycle 1 is the first that
	// can trip.
	for c := int64(1); c < horizon; c++ {
		if err := s.Step(powerW, secondsPerCycle); err != nil {
			return Event{}, false, err
		}
		if s.TempK() >= tripK {
			return Event{Cycle: c, Kind: ThermalTrip, Node: -1, A: -1, B: -1}, true, nil
		}
	}
	return Event{}, false, nil
}
