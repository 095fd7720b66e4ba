package core

import (
	"fmt"
	"math"
	"math/rand"

	"nocsprint/internal/thermal"
	"nocsprint/internal/workload"
)

// This file implements the runtime side of fine-grained sprinting that the
// paper assumes around its mechanisms (§3.1: "the system will quickly react
// to such intense computation and determine the optimal number of cores"):
// an online controller that receives bursts of computation, sprints at the
// policy's level, tracks die temperature by stepping thermal.LumpedState
// (whose PCM refreezes between bursts), and falls back to nominal
// operation when the junction limit is reached — the t_one event of
// Figure 1.

// Burst is one unit of work arriving at the sprint controller.
type Burst struct {
	// Profile is the workload the burst runs.
	Profile workload.Profile
	// WorkSeconds is the burst size in single-core seconds of execution.
	WorkSeconds float64
	// ArrivalS is the burst arrival time relative to trace start; bursts
	// must be sorted by arrival.
	ArrivalS float64
}

// ControllerConfig tunes the runtime controller.
type ControllerConfig struct {
	// Scheme is the sprinting policy applied to every burst.
	Scheme Scheme
	// DtS is the integration step in seconds.
	DtS float64
	// ResumeMarginK is the hysteresis below the junction limit required
	// before sprinting again after a thermal fallback; it must be positive.
	ResumeMarginK float64
}

// DefaultControllerConfig returns a NoC-sprinting controller at 1 ms
// resolution with 5 K of resume hysteresis.
func DefaultControllerConfig() ControllerConfig {
	return ControllerConfig{Scheme: NoCSprinting, DtS: 1e-3, ResumeMarginK: 5}
}

// Validate reports the first invalid field, or nil.
func (c ControllerConfig) Validate() error {
	if c.DtS <= 0 {
		return fmt.Errorf("core: controller step %g not positive", c.DtS)
	}
	if c.ResumeMarginK <= 0 {
		return fmt.Errorf("core: resume margin %g K not positive", c.ResumeMarginK)
	}
	return nil
}

// TraceSample is one decimated point of a controller run's timeline.
type TraceSample struct {
	TimeS        float64
	TempK        float64
	Level        int
	MeltFraction float64
	Throttled    bool
}

// TraceResult summarises a controller run over a burst trace.
type TraceResult struct {
	// Completions holds per-burst completion times (seconds since trace
	// start), aligned with the input bursts. NaN if unfinished at horizon.
	Completions []float64
	// MakespanS is the completion time of the last finished burst.
	MakespanS float64
	// EnergyJ is the integrated chip energy.
	EnergyJ float64
	// PeakK is the highest die temperature reached.
	PeakK float64
	// ThrottledS is the time spent forced to nominal by the thermal limit
	// while work was pending (Figure 1's post-t_one regime).
	ThrottledS float64
	// SprintS is the time spent sprinting above one core.
	SprintS float64
	// Samples is the decimated timeline (~500 points).
	Samples []TraceSample
}

// Controller runs burst traces against a Sprinter's models.
type Controller struct {
	s   *Sprinter
	cfg ControllerConfig
}

// NewController pairs a sprinter with a runtime policy.
func NewController(s *Sprinter, cfg ControllerConfig) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Controller{s: s, cfg: cfg}, nil
}

// RunTrace executes the burst trace for at most horizonS seconds of
// simulated time and returns the run summary. Bursts are served in arrival
// order (FIFO).
func (c *Controller) RunTrace(bursts []Burst, horizonS float64) (TraceResult, error) {
	if horizonS <= 0 {
		return TraceResult{}, fmt.Errorf("core: non-positive horizon")
	}
	for i, b := range bursts {
		if err := b.Profile.Validate(); err != nil {
			return TraceResult{}, fmt.Errorf("core: burst %d: %w", i, err)
		}
		if b.WorkSeconds <= 0 {
			return TraceResult{}, fmt.Errorf("core: burst %d has non-positive work", i)
		}
		if i > 0 && b.ArrivalS < bursts[i-1].ArrivalS {
			return TraceResult{}, fmt.Errorf("core: bursts not sorted by arrival")
		}
	}

	lump := c.s.cfg.Lumped
	th, err := thermal.NewLumpedState(lump)
	if err != nil {
		return TraceResult{}, err
	}
	// The thermal governor: the trip forces nominal operation from the
	// junction limit until the die cools by the resume margin.
	if err := th.SetHysteresis(lump.MaxK, lump.MaxK-c.cfg.ResumeMarginK); err != nil {
		return TraceResult{}, err
	}
	res := TraceResult{
		Completions: make([]float64, len(bursts)),
		PeakK:       lump.AmbientK,
	}
	for i := range res.Completions {
		res.Completions[i] = math.NaN()
	}

	// Precompute per-profile level, speedup, and sprint power.
	type plan struct {
		level   int
		speedup float64
		powerW  float64
	}
	plans := make([]plan, len(bursts))
	nominalDec, err := c.s.Decide(workload.Profiles()[0], NonSprinting)
	if err != nil {
		return TraceResult{}, err
	}
	nominalPowerW := nominalDec.Chip.Total()
	for i, b := range bursts {
		d, err := c.s.Decide(b.Profile, c.cfg.Scheme)
		if err != nil {
			return TraceResult{}, err
		}
		powerW := d.Chip.Total()
		if d.Level > 1 {
			powerW += c.s.cfg.SprintUncoreW
		}
		plans[i] = plan{level: d.Level, speedup: d.Speedup, powerW: powerW}
	}

	var (
		remaining = 0.0 // single-core seconds left in the current burst
		current   = -1  // burst being served
		next      = 0   // next burst to admit
		dt        = c.cfg.DtS
	)
	steps := int(horizonS / dt)
	sampleEvery := steps/500 + 1
	for step := 0; step <= steps; step++ {
		now := float64(step) * dt

		// Admit the next burst when idle.
		if current < 0 && next < len(bursts) && bursts[next].ArrivalS <= now {
			current = next
			remaining = bursts[next].WorkSeconds
			next++
		}

		temp, throttled := th.TempK(), th.Tripped()

		// Pick the operating point.
		level, speedup, powerW := 1, 1.0, nominalPowerW
		if current >= 0 && !throttled {
			p := plans[current]
			level, speedup, powerW = p.level, p.speedup, p.powerW
		}
		if current < 0 {
			// Idle chip: nominal power, no progress.
			speedup = 0
		}

		if step%sampleEvery == 0 {
			res.Samples = append(res.Samples, TraceSample{
				TimeS: now, TempK: temp, Level: level,
				MeltFraction: th.MeltFraction(), Throttled: throttled && current >= 0,
			})
		}

		// Progress accounting.
		if current >= 0 {
			remaining -= speedup * dt
			if level > 1 {
				res.SprintS += dt
			}
			if throttled {
				res.ThrottledS += dt
			}
			if remaining <= 0 {
				res.Completions[current] = now
				res.MakespanS = now
				current = -1
			}
		}
		res.EnergyJ += powerW * dt
		if err := th.Step(powerW, dt); err != nil {
			return TraceResult{}, err
		}
		if t := th.TempK(); t > res.PeakK {
			res.PeakK = t
		}
	}
	return res, nil
}

// ControllerRow summarises one scheme's controller run over the fixed
// bursty trace of ControllerStudy.
type ControllerRow struct {
	Scheme string
	// AvgResponseS is the mean arrival-to-completion time over the bursts
	// that finished within the horizon (0 if none did).
	AvgResponseS float64
	MakespanS    float64
	EnergyJ      float64
	PeakK        float64
	SprintS      float64
	ThrottledS   float64
}

// ControllerStudy runs the online controller under the non-sprinting,
// full-sprinting and NoC-sprinting policies over one fixed trace: six
// 1.2 s bursts of dedup, swaptions and vips arriving every 4 s, simulated
// for 60 s.
func ControllerStudy(s *Sprinter) ([]ControllerRow, error) {
	var bursts []Burst
	for i, name := range []string{"dedup", "swaptions", "dedup", "vips", "swaptions", "dedup"} {
		p, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		bursts = append(bursts, Burst{Profile: p, WorkSeconds: 1.2, ArrivalS: float64(i) * 4})
	}
	var rows []ControllerRow
	for _, scheme := range []Scheme{NonSprinting, FullSprinting, NoCSprinting} {
		cfg := DefaultControllerConfig()
		cfg.Scheme = scheme
		ctl, err := NewController(s, cfg)
		if err != nil {
			return nil, err
		}
		res, err := ctl.RunTrace(bursts, 60)
		if err != nil {
			return nil, err
		}
		var avgResp float64
		finished := 0
		for i, c := range res.Completions {
			if !math.IsNaN(c) {
				avgResp += c - bursts[i].ArrivalS
				finished++
			}
		}
		if finished > 0 {
			avgResp /= float64(finished)
		}
		rows = append(rows, ControllerRow{
			Scheme: scheme.String(), AvgResponseS: avgResp, MakespanS: res.MakespanS,
			EnergyJ: res.EnergyJ, PeakK: res.PeakK, SprintS: res.SprintS, ThrottledS: res.ThrottledS,
		})
	}
	return rows, nil
}

// RandomBurstTrace draws a Poisson-like burst trace over the PARSEC suite:
// n bursts with exponential inter-arrival gaps (mean meanGapS) and
// exponential work sizes (mean meanWorkS), benchmarks drawn uniformly.
// Deterministic for a given rng.
func RandomBurstTrace(rng *rand.Rand, n int, meanGapS, meanWorkS float64) ([]Burst, error) {
	if n < 1 || meanGapS <= 0 || meanWorkS <= 0 {
		return nil, fmt.Errorf("core: invalid trace parameters n=%d gap=%g work=%g", n, meanGapS, meanWorkS)
	}
	profiles := workload.Profiles()
	var bursts []Burst
	t := 0.0
	for i := 0; i < n; i++ {
		t += rng.ExpFloat64() * meanGapS
		work := rng.ExpFloat64() * meanWorkS
		if work < 0.05 {
			work = 0.05 // sub-50ms bursts are below the sprint horizon
		}
		bursts = append(bursts, Burst{
			Profile:     profiles[rng.Intn(len(profiles))],
			WorkSeconds: work,
			ArrivalS:    t,
		})
	}
	return bursts, nil
}
