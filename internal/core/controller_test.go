package core

import (
	"math"
	"testing"

	"nocsprint/internal/workload"
)

func mkBursts(t *testing.T, name string, work float64, arrivals ...float64) []Burst {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	var out []Burst
	for _, a := range arrivals {
		out = append(out, Burst{Profile: p, WorkSeconds: work, ArrivalS: a})
	}
	return out
}

func runTrace(t *testing.T, scheme Scheme, bursts []Burst, horizon float64) TraceResult {
	t.Helper()
	res, err := newSprinter(t).RunTrace(scheme, bursts, horizon)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunTraceValidation(t *testing.T) {
	s := newSprinter(t)
	if _, err := s.RunTrace(NoCSprinting, nil, 0); err == nil {
		t.Error("zero horizon accepted")
	}
	bad := mkBursts(t, "dedup", 0.5, 0)
	bad[0].WorkSeconds = 0
	if _, err := s.RunTrace(NoCSprinting, bad, 1); err == nil {
		t.Error("zero work accepted")
	}
	unsorted := append(mkBursts(t, "dedup", 0.5, 1), mkBursts(t, "dedup", 0.5, 0)...)
	if _, err := s.RunTrace(NoCSprinting, unsorted, 10); err == nil {
		t.Error("unsorted bursts accepted")
	}
	invalid := mkBursts(t, "dedup", 0.5, 0)
	invalid[0].Profile.Serial = 2
	if _, err := s.RunTrace(NoCSprinting, invalid, 1); err == nil {
		t.Error("invalid profile accepted")
	}
}

// TestControllerSprintBeatsNominal pins the point of sprinting: a dedup
// burst completes ~2.8x faster under NoC-sprinting than non-sprinting.
func TestControllerSprintBeatsNominal(t *testing.T) {
	bursts := mkBursts(t, "dedup", 0.5, 0)
	nocRes := runTrace(t, NoCSprinting, bursts, 5)
	nonRes := runTrace(t, NonSprinting, bursts, 5)
	if math.IsNaN(nocRes.Completions[0]) || math.IsNaN(nonRes.Completions[0]) {
		t.Fatalf("bursts unfinished: %v %v", nocRes.Completions, nonRes.Completions)
	}
	ratio := nonRes.Completions[0] / nocRes.Completions[0]
	if ratio < 2.0 || ratio > 3.5 {
		t.Errorf("NoC-sprinting completion advantage %.2fx, want ~2.8x", ratio)
	}
	if nocRes.SprintS <= 0 {
		t.Error("NoC-sprinting run never sprinted")
	}
	if nonRes.SprintS != 0 {
		t.Error("non-sprinting run sprinted")
	}
}

// TestControllerThermalLimitRespected: a sustained full sprint must hit the
// junction limit, throttle, and never exceed MaxK by more than one Euler
// step's worth of drift.
func TestControllerThermalLimitRespected(t *testing.T) {
	bursts := mkBursts(t, "blackscholes", 10, 0) // huge burst, level 16
	res := runTrace(t, FullSprinting, bursts, 20)
	s := newSprinter(t)
	maxK := s.Config().Lumped.MaxK
	if res.PeakK > maxK+0.5 {
		t.Errorf("temperature %.2f K overshot the limit %.2f K", res.PeakK, maxK)
	}
	if res.ThrottledS <= 0 {
		t.Error("sustained full sprint never throttled")
	}
}

// TestControllerNoCSprintThrottlesLessThanFull: for a level-4 workload the
// full-sprinting policy burns the thermal budget sooner and spends more
// time throttled than NoC-sprinting on the same work.
func TestControllerNoCSprintThrottlesLessThanFull(t *testing.T) {
	bursts := mkBursts(t, "dedup", 4, 0)
	full := runTrace(t, FullSprinting, bursts, 40)
	nocs := runTrace(t, NoCSprinting, bursts, 40)
	if nocs.ThrottledS >= full.ThrottledS {
		t.Errorf("NoC-sprinting throttled %.2fs, full %.2fs — expected less",
			nocs.ThrottledS, full.ThrottledS)
	}
	// And it finishes the work sooner despite the lower level, because
	// dedup degrades at 16 cores and full-sprinting stalls at the limit.
	if !(nocs.Completions[0] < full.Completions[0]) {
		t.Errorf("NoC-sprinting completion %.2fs not before full %.2fs",
			nocs.Completions[0], full.Completions[0])
	}
	if nocs.EnergyJ >= full.EnergyJ {
		t.Errorf("NoC-sprinting energy %.1fJ not below full %.1fJ", nocs.EnergyJ, full.EnergyJ)
	}
}

// TestControllerPCMRefreeze: after a sprint and a long idle gap the PCM
// refreezes, so a second identical burst sees the same thermal headroom.
func TestControllerPCMRefreeze(t *testing.T) {
	bursts := mkBursts(t, "dedup", 1.0, 0, 30) // long gap between bursts
	res := runTrace(t, NoCSprinting, bursts, 60)
	if math.IsNaN(res.Completions[0]) || math.IsNaN(res.Completions[1]) {
		t.Fatalf("bursts unfinished: %v", res.Completions)
	}
	d1 := res.Completions[0] - 0
	d2 := res.Completions[1] - 30
	if math.Abs(d1-d2) > 0.15*d1 {
		t.Errorf("burst durations differ after refreeze: %.3f vs %.3f", d1, d2)
	}
	// The melt fraction must return to ~0 before the second burst.
	for _, smp := range res.Samples {
		if smp.TimeS > 25 && smp.TimeS < 30 {
			if smp.MeltFraction > 0.1 {
				t.Errorf("PCM still %.0f%% melted at t=%.1fs", smp.MeltFraction*100, smp.TimeS)
			}
		}
	}
}

// TestControllerSamplesAndIdlePower sanity-checks the timeline and energy
// accounting of an idle trace.
func TestControllerSamplesAndIdlePower(t *testing.T) {
	res := runTrace(t, NoCSprinting, nil, 2)
	if len(res.Samples) == 0 {
		t.Fatal("no samples")
	}
	for _, smp := range res.Samples {
		if smp.Level != 1 || smp.Throttled {
			t.Fatalf("idle trace sample wrong: %+v", smp)
		}
	}
	// Idle energy = nominal chip power × horizon.
	s := newSprinter(t)
	dec, err := s.Decide(workload.Profiles()[0], NonSprinting)
	if err != nil {
		t.Fatal(err)
	}
	want := dec.Chip.Total() * 2
	if math.Abs(res.EnergyJ-want) > 0.05*want {
		t.Errorf("idle energy %.2fJ, want ~%.2fJ", res.EnergyJ, want)
	}
	if res.MakespanS != 0 || res.SprintS != 0 {
		t.Error("idle trace should not record work")
	}
}

// TestControllerFIFOCompletionOrder: queued bursts finish in order, each
// after the previous.
func TestControllerFIFOCompletionOrder(t *testing.T) {
	bursts := mkBursts(t, "swaptions", 0.3, 0, 0, 0)
	res := runTrace(t, NoCSprinting, bursts, 10)
	prev := -1.0
	for i, c := range res.Completions {
		if math.IsNaN(c) {
			t.Fatalf("burst %d unfinished", i)
		}
		if c <= prev {
			t.Fatalf("completion order violated: %v", res.Completions)
		}
		prev = c
	}
	if res.MakespanS != prev {
		t.Error("makespan mismatch")
	}
}

// TestSprintThermalMatchesControllerPower: SprintThermal's phases are
// Lumped.SprintPhases at exactly the power RunTrace charges the same burst,
// for every PARSEC profile and every sprinting scheme, and for a profile
// that cannot use a second core (Parallelism 1: NoC-sprinting and
// fine-grained sprinting run it on one core, and neither model charges the
// sprint uncore).
func TestSprintThermalMatchesControllerPower(t *testing.T) {
	s := newSprinter(t)
	serial := workload.Profiles()[0]
	serial.Name, serial.Parallelism = "serial", 1
	for _, p := range append(workload.Profiles(), serial) {
		for _, scheme := range []Scheme{FullSprinting, FineGrained, NoCSprinting} {
			ph, d, err := s.SprintThermal(p, scheme)
			if err != nil {
				t.Fatal(err)
			}
			if p.Name == serial.Name && scheme != FullSprinting && d.Level != 1 {
				t.Fatalf("%s under %v: level %d, want 1", p.Name, scheme, d.Level)
			}
			// A horizon of half a step runs one step at t=0, inside a burst
			// that outlasts it, so it charges the burst's sprint power for
			// exactly one step.
			res, err := s.RunTrace(scheme, []Burst{{Profile: p, WorkSeconds: 100}}, controllerStepS/2)
			if err != nil {
				t.Fatal(err)
			}
			if res.EnergyJ != d.PowerW*controllerStepS {
				t.Fatalf("%s under %v (level %d): RunTrace charges %g J over one step, want SprintThermal's %g W for %g s",
					p.Name, scheme, d.Level, res.EnergyJ, d.PowerW, controllerStepS)
			}
			want, err := s.Config().Lumped.SprintPhases(d.PowerW)
			if err != nil {
				t.Fatal(err)
			}
			if ph != want {
				t.Errorf("%s under %v (level %d): SprintThermal phases %+v, but RunTrace charges %g W, whose phases are %+v",
					p.Name, scheme, d.Level, ph, d.PowerW, want)
			}
		}
	}
}
