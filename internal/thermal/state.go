package thermal

import (
	"fmt"
	"math"
)

// LumpedState integrates the lumped RC + PCM model incrementally: it is fed
// one (power, dt) step at a time, so callers whose power varies over time —
// the telemetry sampler, level-change studies — drive the same physics that
// Timeline loops over for a whole constant-power sprint. Steps longer than a tenth of the RC time constant are internally
// sub-stepped to keep the explicit Euler integration stable, so a single
// large dt and many small ones converge to the same trajectory.
//
// The state optionally tracks a thermal-trip comparator with hysteresis
// (SetHysteresis): crossing TripK upward asserts the trip, and the trip
// clears only once the die cools below ClearK, so temperature jitter around
// the threshold cannot re-trigger events every step.
type LumpedState struct {
	l       Lumped
	tempK   float64
	meltedJ float64

	tripK, clearK float64
	tripped       bool
	trips         int
}

// NewLumpedState returns a stepper for model l starting at ambient
// temperature with the PCM fully solid.
func NewLumpedState(l Lumped) (*LumpedState, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return &LumpedState{l: l, tempK: l.AmbientK}, nil
}

// SetHysteresis arms the trip comparator: the trip asserts when temperature
// reaches tripK and clears when it falls back to clearK. clearK must be
// strictly below tripK (equal thresholds would chatter) and both must sit
// above ambient to be reachable only by heating.
func (s *LumpedState) SetHysteresis(tripK, clearK float64) error {
	if math.IsNaN(tripK) || math.IsNaN(clearK) || clearK >= tripK {
		return fmt.Errorf("thermal: hysteresis needs clear %g < trip %g", clearK, tripK)
	}
	if clearK <= s.l.AmbientK {
		return fmt.Errorf("thermal: clear threshold %g K not above ambient %g K", clearK, s.l.AmbientK)
	}
	s.tripK, s.clearK = tripK, clearK
	return nil
}

// Step advances the model by dt seconds at constant power powerW. A zero dt
// is an explicit no-op (the state, including the trip comparator, is
// untouched); a negative or NaN dt, or a negative or NaN power, is an error
// and leaves the state unchanged.
func (s *LumpedState) Step(powerW, dt float64) error {
	if math.IsNaN(dt) || dt < 0 {
		return fmt.Errorf("thermal: invalid step dt %g", dt)
	}
	if math.IsNaN(powerW) || powerW < 0 {
		return fmt.Errorf("thermal: invalid power %g", powerW)
	}
	if dt == 0 {
		return nil
	}
	// Sub-step for stability: explicit Euler diverges once dt approaches the
	// RC time constant, and telemetry windows can span an arbitrary fraction
	// of it.
	maxStep := s.l.RthKperW * s.l.CthJperK / 10
	for dt > 0 {
		h := dt
		if h > maxStep {
			h = maxStep
		}
		dt -= h
		q := powerW - (s.tempK-s.l.AmbientK)/s.l.RthKperW // net heat into the die, W
		if s.tempK >= s.l.PCM.MeltK && s.meltedJ < s.l.PCM.LatentJ && q > 0 {
			// Melting absorbs the excess; temperature holds. Overshoot
			// past full melt heats the die.
			s.meltedJ += q * h
			if s.meltedJ > s.l.PCM.LatentJ {
				overshoot := s.meltedJ - s.l.PCM.LatentJ
				s.meltedJ = s.l.PCM.LatentJ
				s.tempK += overshoot / s.l.CthJperK
			}
			continue
		}
		s.tempK += q * h / s.l.CthJperK
	}
	if s.tripK > 0 {
		switch {
		case !s.tripped && s.tempK >= s.tripK:
			s.tripped = true
			s.trips++
		case s.tripped && s.tempK <= s.clearK:
			s.tripped = false
		}
	}
	return nil
}

// TempK returns the current die temperature in kelvin.
func (s *LumpedState) TempK() float64 { return s.tempK }

// MeltFraction returns the fraction of the PCM melted so far (0 when the
// model has no latent reservoir).
func (s *LumpedState) MeltFraction() float64 {
	if s.l.PCM.LatentJ <= 0 {
		return 0
	}
	return s.meltedJ / s.l.PCM.LatentJ
}

// Tripped reports whether the trip comparator is currently asserted.
func (s *LumpedState) Tripped() bool { return s.tripped }

// Trips returns the number of distinct trip assertions so far.
func (s *LumpedState) Trips() int { return s.trips }
