package thermal

import (
	"fmt"
	"math"
)

// LumpedState integrates the lumped RC + PCM model incrementally: it is fed
// one (power, dt) step at a time, so callers whose power varies over time —
// the telemetry sampler, the burst controller, level-change studies — drive
// the same physics that Timeline loops over for a whole constant-power
// sprint. The PCM holds the die at its melt point in both directions: it
// melts while heat flows in and refreezes while heat flows out, so a die
// that cooled below the melt point gets a full plateau on its next heating.
// Steps longer than a tenth of the RC time constant are internally
// sub-stepped to keep the explicit Euler integration stable, so a single
// large dt and many small ones converge to the same trajectory away from the
// melt point. A (sub-)step that carries the die across the melt point is not
// split there. Heating, the die then melts the PCM a little above the melt
// point. Cooling with liquid PCM left, it lands below the melt point and the
// next step pins it back there, which returns the crossing step's overshoot
// (up to |q|·h joules) to the die and lengthens the refreeze. At millisecond
// steps that is negligible; at RC/10 on DefaultLumped it can reach a quarter
// of the latent reservoir.
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
// untouched); a negative or non-finite dt or power is an error and leaves
// the state unchanged.
func (s *LumpedState) Step(powerW, dt float64) error {
	if !finiteNonNeg(dt) {
		return fmt.Errorf("thermal: invalid step dt %g", dt)
	}
	if !finiteNonNeg(powerW) {
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
		switch {
		case s.tempK >= s.l.PCM.MeltK && s.meltedJ < s.l.PCM.LatentJ && q > 0:
			// Melting absorbs the excess; temperature holds. Overshoot
			// past full melt heats the die.
			s.meltedJ += q * h
			if s.meltedJ > s.l.PCM.LatentJ {
				overshoot := s.meltedJ - s.l.PCM.LatentJ
				s.meltedJ = s.l.PCM.LatentJ
				s.tempK += overshoot / s.l.CthJperK
			}
		case s.tempK <= s.l.PCM.MeltK && s.meltedJ > 0 && q < 0:
			// Refreezing releases the latent heat and pins the die at the
			// melt point; a deficit past full solidification cools it.
			s.meltedJ += q * h
			if s.meltedJ < 0 {
				s.tempK += s.meltedJ / s.l.CthJperK
				s.meltedJ = 0
			} else {
				s.tempK = s.l.PCM.MeltK
			}
		default:
			s.tempK += q * h / s.l.CthJperK
		}
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

// finiteNonNeg reports whether v is a usable power or duration: neither
// negative, NaN nor +Inf.
func finiteNonNeg(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }
