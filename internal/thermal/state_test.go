package thermal

import (
	"math"
	"testing"
	"time"
)

func TestNewLumpedStateValidation(t *testing.T) {
	if _, err := NewLumpedState(Lumped{}); err == nil {
		t.Error("zero model accepted")
	}
	s, err := NewLumpedState(DefaultLumped())
	if err != nil {
		t.Fatal(err)
	}
	if s.TempK() != DefaultLumped().AmbientK {
		t.Errorf("fresh state at %g K, want ambient %g K", s.TempK(), DefaultLumped().AmbientK)
	}
	if s.MeltFraction() != 0 || s.Tripped() {
		t.Errorf("fresh state not pristine: melt %g tripped %v", s.MeltFraction(), s.Tripped())
	}
}

// tripCounter counts the trip comparator's false→true edges between Step
// calls. The comparator updates once per Step, after its sub-steps, so this
// is the number of distinct trip assertions.
type tripCounter struct {
	*LumpedState
	trips int
}

func newTripCounter(t *testing.T, tripK, clearK float64) *tripCounter {
	t.Helper()
	s, err := NewLumpedState(DefaultLumped())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetHysteresis(tripK, clearK); err != nil {
		t.Fatal(err)
	}
	return &tripCounter{LumpedState: s}
}

func (c *tripCounter) Step(powerW, dt float64) error {
	was := c.Tripped()
	err := c.LumpedState.Step(powerW, dt)
	if !was && c.Tripped() {
		c.trips++
	}
	return err
}

func TestLumpedStateStepRejectsBadInputs(t *testing.T) {
	s, err := NewLumpedState(DefaultLumped())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Step(100, 0.5); err != nil {
		t.Fatal(err)
	}
	before := s.TempK()
	cases := []struct {
		name      string
		powerW, d float64
	}{
		{"negative dt", 10, -1},
		{"NaN dt", 10, math.NaN()},
		{"infinite dt", 10, math.Inf(1)},
		{"negative power", -1, 0.1},
		{"NaN power", math.NaN(), 0.1},
		{"infinite power", math.Inf(1), 0.1},
	}
	for _, c := range cases {
		// Step runs under a deadline, so a sub-step loop that never ends
		// fails the test instead of stalling the package.
		errc := make(chan error, 1)
		go func() { errc <- s.Step(c.powerW, c.d) }()
		select {
		case err := <-errc:
			if err == nil {
				t.Errorf("%s: accepted", c.name)
			}
		case <-time.After(time.Second):
			t.Fatalf("%s: Step did not return within 1 s", c.name)
		}
		if s.TempK() != before {
			t.Errorf("%s: state mutated on error (%g -> %g)", c.name, before, s.TempK())
		}
	}
}

// TestLumpedStateZeroDtIsNoOp pins the documented contract: dt == 0 touches
// nothing, including the trip comparator, even when the die already sits
// above the trip threshold.
func TestLumpedStateZeroDtIsNoOp(t *testing.T) {
	s := newTripCounter(t, 350, 340)
	// Heat well past the trip point so a buggy zero-dt step would have a
	// comparator transition to leak.
	for i := 0; i < 100; i++ {
		if err := s.Step(60, 0.1); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Tripped() {
		t.Fatalf("die at %g K did not trip at 350 K", s.TempK())
	}
	temp, melt, trips := s.TempK(), s.MeltFraction(), s.trips
	if err := s.Step(60, 0); err != nil {
		t.Fatalf("zero dt rejected: %v", err)
	}
	if s.TempK() != temp || s.MeltFraction() != melt || s.trips != trips || !s.Tripped() {
		t.Errorf("zero-dt step mutated state: temp %g->%g melt %g->%g trips %d->%d",
			temp, s.TempK(), melt, s.MeltFraction(), trips, s.trips)
	}
}

// TestLumpedStateMatchesTimeline drives the incremental stepper with the same
// explicit-Euler step Timeline uses internally: at equal dt (below the
// sub-stepping threshold) the two integrators execute identical arithmetic,
// so the trajectories must agree bit-for-bit — through the rise, the melt
// plateau, and the post-melt rise.
func TestLumpedStateMatchesTimeline(t *testing.T) {
	l := DefaultLumped()
	const (
		powerW  = 100.0
		dt      = 0.01
		maxTime = 1.8 // rise + full melt plateau + post-melt rise, below MaxK
	)
	ref, err := l.Timeline(powerW, dt, maxTime, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewLumpedState(l)
	if err != nil {
		t.Fatal(err)
	}
	plateau := 0.0 // the melt plateau holds at the (slightly overshot) crossing temperature
	for i, want := range ref {
		if s.TempK() != want.TempK || s.MeltFraction() != want.MeltFraction {
			t.Fatalf("step %d (t=%.2fs): state %g K / melt %g, timeline %g K / melt %g",
				i, want.TimeS, s.TempK(), s.MeltFraction(), want.TempK, want.MeltFraction)
		}
		if f := s.MeltFraction(); f > 0 && f < 1 {
			if plateau == 0 {
				plateau = s.TempK()
				if plateau < l.PCM.MeltK || plateau > l.PCM.MeltK+0.1 {
					t.Fatalf("step %d: plateau at %g K, want just above melt point %g K", i, plateau, l.PCM.MeltK)
				}
			} else if s.TempK() != plateau {
				t.Fatalf("step %d: melting but temp %g K moved off the %g K plateau", i, s.TempK(), plateau)
			}
		}
		if err := s.Step(powerW, dt); err != nil {
			t.Fatal(err)
		}
	}
	if plateau == 0 {
		t.Error("trajectory never crossed the melt plateau; the test lost its PCM coverage")
	}
}

// TestLumpedStateRefreezes melts the PCM, then cools at a power below the
// melt-point balance: the die must hold at MeltK while the PCM refreezes,
// cool below MeltK only once it is solid, and get a full-length melt plateau
// again on the next heating. It runs at a fine step and at RC/10, the
// largest step Step takes unsplit, where the step that cools the die across
// the melt point lands visibly below it.
func TestLumpedStateRefreezes(t *testing.T) {
	l := DefaultLumped()
	for _, c := range []struct {
		name      string
		dt, coolW float64
	}{
		// 20 W is below the (MeltK-ambient)/Rth = 27 W balance at the melt point.
		{"fine", 0.01, 20},
		// Unpowered, one RC/10 step cools a die at the melt point by 2.7 K.
		{"rc_tenth", l.RthKperW * l.CthJperK / 10, 0},
	} {
		t.Run(c.name, func(t *testing.T) { testRefreeze(t, l, c.dt, c.coolW) })
	}
}

func testRefreeze(t *testing.T, l Lumped, dt, coolW float64) {
	const hotW = 100.0
	s, err := NewLumpedState(l)
	if err != nil {
		t.Fatal(err)
	}
	step := func(powerW float64) {
		t.Helper()
		if err := s.Step(powerW, dt); err != nil {
			t.Fatal(err)
		}
	}
	// heat runs at hotW until the PCM is fully melted and returns how many
	// steps the melt plateau lasted.
	heat := func() int {
		t.Helper()
		plateau := 0
		for i := 0; s.MeltFraction() < 1; i++ {
			if i == 100000 {
				t.Fatalf("PCM never fully melted (die at %g K, melt %g)", s.TempK(), s.MeltFraction())
			}
			step(hotW)
			if f := s.MeltFraction(); f > 0 && f < 1 {
				plateau++
			}
		}
		return plateau
	}

	first := heat()
	if first == 0 {
		t.Fatal("first heating crossed no melt plateau")
	}
	refreezing, crossings := 0, 0
	for i := 0; s.MeltFraction() > 0; i++ {
		if i == 100000 {
			t.Fatalf("PCM never refroze: die at %g K, melt fraction %g", s.TempK(), s.MeltFraction())
		}
		before := s.TempK()
		step(coolW)
		f := s.MeltFraction()
		switch {
		case f > 0 && f < 1:
			refreezing++
			if s.TempK() != l.PCM.MeltK {
				t.Fatalf("refreezing at melt fraction %g but die at %g K, want %g K", f, s.TempK(), l.PCM.MeltK)
			}
		case f == 1 && s.TempK() < l.PCM.MeltK:
			// Only the step that crosses the melt point may leave liquid
			// PCM under a die below it; the next step pins the die back.
			crossings++
			if crossings > 1 || before < l.PCM.MeltK {
				t.Fatalf("liquid PCM under a die at %g K (was %g K) on step %d: not the melt-point crossing",
					s.TempK(), before, i)
			}
		}
	}
	if refreezing == 0 {
		t.Fatal("the PCM refroze without holding the die at the melt point")
	}
	for i := 0; i < 1000; i++ {
		step(coolW)
	}
	if s.TempK() >= l.PCM.MeltK {
		t.Fatalf("solid PCM but the die stays at %g K, not below the %g K melt point", s.TempK(), l.PCM.MeltK)
	}
	if second := heat(); math.Abs(float64(second-first)) > 1 {
		t.Errorf("re-heating plateau lasted %d steps, first heating %d", second, first)
	}
}

// TestLumpedStateSubStepping feeds one large dt (many RC time constants) and
// checks it converges to the same endpoint as many fine steps: the internal
// sub-stepping must keep explicit Euler stable instead of diverging.
func TestLumpedStateSubStepping(t *testing.T) {
	l := DefaultLumped()
	const powerW, total = 35.0, 30.0 // sustainable power, ~9 RC constants
	coarse, err := NewLumpedState(l)
	if err != nil {
		t.Fatal(err)
	}
	if err := coarse.Step(powerW, total); err != nil {
		t.Fatal(err)
	}
	fine, err := NewLumpedState(l)
	if err != nil {
		t.Fatal(err)
	}
	const n = 30000
	for i := 0; i < n; i++ {
		if err := fine.Step(powerW, total/n); err != nil {
			t.Fatal(err)
		}
	}
	steady := l.AmbientK + powerW*l.RthKperW
	if d := math.Abs(coarse.TempK() - fine.TempK()); d > 0.2 {
		t.Errorf("coarse %g K vs fine %g K: sub-stepping drifted by %g K", coarse.TempK(), fine.TempK(), d)
	}
	if d := math.Abs(coarse.TempK() - steady); d > 0.2 {
		t.Errorf("after %g RC constants at %g W: %g K, want steady state %g K",
			total/(l.RthKperW*l.CthJperK), powerW, coarse.TempK(), steady)
	}
}

func TestSetHysteresisValidation(t *testing.T) {
	s, err := NewLumpedState(DefaultLumped())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name         string
		tripK, clear float64
	}{
		{"clear above trip", 340, 350},
		{"clear equals trip", 350, 350},
		{"NaN trip", math.NaN(), 340},
		{"NaN clear", 350, math.NaN()},
		{"clear at ambient", 350, DefaultLumped().AmbientK},
	}
	for _, c := range cases {
		if err := s.SetHysteresis(c.tripK, c.clear); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if err := s.SetHysteresis(350, 340); err != nil {
		t.Errorf("valid hysteresis rejected: %v", err)
	}
}

// TestLumpedStateTripHysteresis walks the comparator through a full cycle:
// trip on heating, stay latched while between the thresholds, clear only
// below ClearK, and re-trip on the next excursion — two distinct trips, not
// one per sample of threshold jitter.
func TestLumpedStateTripHysteresis(t *testing.T) {
	s := newTripCounter(t, 350, 340)
	heat := func(powerW float64, until func() bool) {
		t.Helper()
		for i := 0; i < 100000; i++ {
			if err := s.Step(powerW, 0.05); err != nil {
				t.Fatal(err)
			}
			if until() {
				return
			}
		}
		t.Fatalf("comparator never transitioned (die at %g K)", s.TempK())
	}

	heat(60, s.Tripped) // steady state 378 K, must trip at 350 K
	if s.trips != 1 {
		t.Fatalf("%d trips after first excursion, want 1", s.trips)
	}
	// Hold between the thresholds: 26 W settles at 344 K — above ClearK,
	// below TripK. The trip must stay latched however long we linger.
	for i := 0; i < 2000; i++ {
		if err := s.Step(26, 0.05); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.TempK(); got <= 340 || got >= 350 {
		t.Fatalf("hold temperature %g K left the hysteresis band", got)
	}
	if !s.Tripped() || s.trips != 1 {
		t.Fatalf("trip unlatched inside the band: tripped %v trips %d", s.Tripped(), s.trips)
	}
	heat(0, func() bool { return !s.Tripped() }) // cool below ClearK
	if s.TempK() > 340 || s.trips != 1 {
		t.Fatalf("cleared at %g K with %d trips", s.TempK(), s.trips)
	}
	heat(60, s.Tripped) // second excursion is a second trip
	if s.trips != 2 {
		t.Errorf("%d trips after second excursion, want 2", s.trips)
	}
}

// TestLumpedStateLevelChange drives the stepper with a sprint-level power
// staircase — the varying-power use case Timeline cannot express — and checks
// each discontinuity bends the trajectory toward the new asymptote.
func TestLumpedStateLevelChange(t *testing.T) {
	l := DefaultLumped()
	l.PCM.LatentJ = 0 // pure RC: every level has a clean exponential approach
	s, err := NewLumpedState(l)
	if err != nil {
		t.Fatal(err)
	}
	if s.MeltFraction() != 0 {
		t.Errorf("latent-free model reports melt fraction %g", s.MeltFraction())
	}
	settle := func(powerW float64) float64 {
		t.Helper()
		for i := 0; i < 2000; i++ { // 100 s = ~29 RC constants
			if err := s.Step(powerW, 0.05); err != nil {
				t.Fatal(err)
			}
		}
		return s.TempK()
	}
	prev := s.TempK()
	for _, c := range []struct {
		powerW float64
		hotter bool
	}{
		{10, true},  // level up from idle
		{25, true},  // level up
		{39, true},  // near-TDP sprint
		{25, false}, // level back down
		{0, false},  // all dark
	} {
		got := settle(c.powerW)
		steady := l.AmbientK + c.powerW*l.RthKperW
		if math.Abs(got-steady) > 0.01 {
			t.Errorf("at %g W: settled at %g K, want %g K", c.powerW, got, steady)
		}
		if c.hotter && got <= prev {
			t.Errorf("level up to %g W cooled the die: %g -> %g K", c.powerW, prev, got)
		}
		if !c.hotter && got >= prev {
			t.Errorf("level down to %g W heated the die: %g -> %g K", c.powerW, prev, got)
		}
		prev = got
	}
}
