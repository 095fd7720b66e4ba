package thermal

import (
	"fmt"
	"math"
)

// PCM describes the phase-change heat-storage material placed close to the
// die. While the material melts, the die temperature holds at MeltK; the
// melt duration is set by the latent heat of fusion (§2, §4.4).
type PCM struct {
	// MeltK is the melting temperature in kelvin.
	MeltK float64
	// LatentJ is the total latent heat of fusion of the installed material
	// in joules.
	LatentJ float64
}

// Lumped is the whole-chip RC thermal model with a PCM reservoir, used for
// the Figure 1 sprint timeline and the §4.4 sprint-duration analysis.
type Lumped struct {
	// RthKperW is the chip-to-ambient thermal resistance.
	RthKperW float64
	// CthJperK is the chip+package heat capacity.
	CthJperK float64
	// AmbientK is ambient temperature.
	AmbientK float64
	// MaxK is the junction temperature limit: reaching it terminates the
	// sprint (all but one core shut down, Figure 1's t_one).
	MaxK float64
	// PCM is the heat-storage material.
	PCM PCM
}

// DefaultLumped returns the calibrated 16-core chip model. The parameters
// are mutually consistent with the chip power model: nominal single-core
// operation (~25.4 W) settles below the PCM melt point and is sustainable
// (TDP = 40 W), while full 16-core sprinting (~191 W with active uncore)
// survives about one second — the paper's worst-case assumption — and the
// junction limit coincides with Figure 12's full-sprint peak (358 K).
func DefaultLumped() Lumped {
	return Lumped{
		RthKperW: 1.0,
		CthJperK: 3.4,
		AmbientK: 318.15,
		MaxK:     358.15,
		PCM: PCM{
			MeltK:   345.15,
			LatentJ: 35.0,
		},
	}
}

// Validate reports the first invalid field, or nil.
func (l Lumped) Validate() error {
	switch {
	case l.RthKperW <= 0 || l.CthJperK <= 0:
		return fmt.Errorf("thermal: RC parameters must be positive")
	case l.AmbientK <= 0:
		return fmt.Errorf("thermal: ambient %g K not physical", l.AmbientK)
	case !(l.AmbientK < l.PCM.MeltK && l.PCM.MeltK < l.MaxK):
		return fmt.Errorf("thermal: need ambient < melt < max (%g, %g, %g)",
			l.AmbientK, l.PCM.MeltK, l.MaxK)
	case l.PCM.LatentJ < 0:
		return fmt.Errorf("thermal: negative latent heat")
	}
	return nil
}

// SustainablePower returns the highest power the chip can dissipate forever
// without exceeding MaxK — the TDP of nominal operation.
func (l Lumped) SustainablePower() float64 {
	return (l.MaxK - l.AmbientK) / l.RthKperW
}

// Phases breaks a sprint at constant power into the paper's three phases.
type Phases struct {
	// Phase1 is the time from sprint start (at ambient) to PCM melt onset.
	Phase1 float64
	// Phase2 is the melt duration (temperature pinned at MeltK).
	Phase2 float64
	// Phase3 is the time from melt completion to MaxK.
	Phase3 float64
	// Sustainable reports that the chip never reaches MaxK at this power:
	// the sprint can continue indefinitely and the phase fields cover only
	// the portion actually bounded (unbounded phases are +Inf).
	Sustainable bool
}

// Total returns the total sprint duration (possibly +Inf if sustainable).
func (p Phases) Total() float64 { return p.Phase1 + p.Phase2 + p.Phase3 }

// riseTime returns the time for the lumped RC node to rise from t0 to t1
// at constant power P, or +Inf if the asymptote P·R+ambient never reaches
// t1. Closed-form solution of C·dT/dt = P − (T−Tamb)/R.
func (l Lumped) riseTime(p, t0, t1 float64) float64 {
	asym := l.AmbientK + p*l.RthKperW
	if asym <= t1 {
		return math.Inf(1)
	}
	tau := l.RthKperW * l.CthJperK
	return tau * math.Log((asym-t0)/(asym-t1))
}

// SprintPhases computes the three sprint phases at constant chip power
// powerW, starting from ambient temperature.
func (l Lumped) SprintPhases(powerW float64) (Phases, error) {
	if err := l.Validate(); err != nil {
		return Phases{}, err
	}
	if powerW < 0 || math.IsNaN(powerW) {
		return Phases{}, fmt.Errorf("thermal: invalid power %g", powerW)
	}
	var ph Phases
	// Phase 1: ambient -> melt.
	ph.Phase1 = l.riseTime(powerW, l.AmbientK, l.PCM.MeltK)
	if math.IsInf(ph.Phase1, 1) {
		// Never reaches the melt point, let alone MaxK.
		ph.Sustainable = true
		ph.Phase2, ph.Phase3 = math.Inf(1), math.Inf(1)
		return ph, nil
	}
	// Phase 2: melting pins the die at MeltK; the excess heat flux above
	// steady-state conduction melts the material.
	excess := powerW - (l.PCM.MeltK-l.AmbientK)/l.RthKperW
	if excess <= 0 {
		// Conduction at MeltK balances the power: melt never completes.
		ph.Sustainable = true
		ph.Phase2, ph.Phase3 = math.Inf(1), math.Inf(1)
		return ph, nil
	}
	ph.Phase2 = l.PCM.LatentJ / excess
	// Phase 3: melt -> max.
	ph.Phase3 = l.riseTime(powerW, l.PCM.MeltK, l.MaxK)
	if math.IsInf(ph.Phase3, 1) {
		ph.Sustainable = true
	}
	return ph, nil
}

// SprintDuration returns the total sprint time at constant power, and
// whether the configuration is sustainable (duration +Inf).
func (l Lumped) SprintDuration(powerW float64) (float64, bool, error) {
	ph, err := l.SprintPhases(powerW)
	if err != nil {
		return 0, false, err
	}
	return ph.Total(), ph.Sustainable, nil
}

// TempSample is one point of a simulated sprint timeline.
type TempSample struct {
	// TimeS is seconds since sprint start.
	TimeS float64
	// TempK is die temperature.
	TempK float64
	// MeltFraction is the fraction of PCM melted so far.
	MeltFraction float64
}

// Timeline integrates the lumped model at constant power in LumpedState
// steps of dt seconds, for at most maxTime seconds or until MaxK is reached,
// sampling every sampleEvery steps. It reproduces the Figure 1 curve: rise,
// melt plateau, rise. Like LumpedState.Step, it rejects a negative or NaN
// power, and sub-steps a dt longer than a tenth of the RC time constant.
func (l Lumped) Timeline(powerW, dt, maxTime float64, sampleEvery int) ([]TempSample, error) {
	s, err := NewLumpedState(l)
	if err != nil {
		return nil, err
	}
	if dt <= 0 || maxTime <= 0 || sampleEvery < 1 {
		return nil, fmt.Errorf("thermal: invalid timeline parameters")
	}
	var out []TempSample
	steps := int(maxTime / dt)
	for i := 0; i <= steps; i++ {
		if i%sampleEvery == 0 {
			out = append(out, TempSample{TimeS: float64(i) * dt, TempK: s.TempK(), MeltFraction: s.MeltFraction()})
		}
		if s.TempK() >= l.MaxK {
			break
		}
		if err := s.Step(powerW, dt); err != nil {
			return nil, err
		}
	}
	return out, nil
}
