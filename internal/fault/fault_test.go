package fault

import (
	"math"
	"slices"
	"strings"
	"testing"

	"nocsprint/internal/thermal"
	"nocsprint/internal/topo"
)

func TestParseStringRoundTrip(t *testing.T) {
	text := "perm:3@100\ntrans:7@50+400\nlink:1-2@200\ntrip@75"
	s, err := Parse(text, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.events) != 4 {
		t.Fatalf("parsed %d events, want 4", len(s.events))
	}
	// Events come back sorted by cycle; re-parsing the rendering must be
	// a fixed point.
	got := s.String()
	want := "trans:7@50+400\ntrip@75\nperm:3@100\nlink:1-2@200"
	if got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	s2, err := Parse(got, 16)
	if err != nil {
		t.Fatal(err)
	}
	if s2.String() != got {
		t.Fatalf("round trip not stable: %q -> %q", got, s2.String())
	}
}

func TestParseSeparatorsAndBlanks(t *testing.T) {
	s, err := Parse("  perm:0@5 ;; trans:1@6+10 \n\n trip@7 ", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.events) != 3 {
		t.Fatalf("parsed %d events, want 3", len(s.events))
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	cases := []string{
		"perm:3",            // no @cycle
		"perm:x@10",         // bad node
		"perm:3@ten",        // bad cycle
		"perm:3@10+5",       // permanent with duration
		"trans:3@10",        // transient without duration
		"trans:3@10+x",      // bad duration
		"trans:3@10+0",      // zero duration
		"link:3@10",         // missing endpoints
		"link:a-b@10",       // bad endpoints
		"link:3-3@10",       // self loop
		"trip:1@10",         // trip with operand
		"melt:3@10",         // unknown kind
		"perm:99@10",        // node outside mesh
		"link:0-99@10",      // endpoint outside mesh
		"perm:3@-1",         // negative cycle
		"perm:0@1;perm:1@2", // retires all nodes (2-node mesh below)
	}
	for _, text := range cases {
		if _, err := Parse(text, 2); err == nil {
			t.Errorf("Parse(%q) accepted malformed input", text)
		}
	}
}

func TestValidateSurvivability(t *testing.T) {
	// 3 nodes, schedule can retire nodes 0 and 1 via a link fault plus a
	// transient on 2 — all three are potential casualties.
	_, err := New(3, []Event{
		{Cycle: 10, Kind: LinkPermanent, Node: -1, A: 0, B: 1},
		{Cycle: 20, Kind: RouterTransient, Node: 2, A: -1, B: -1, Duration: 5},
	})
	if err == nil || !strings.Contains(err.Error(), "survivable") {
		t.Fatalf("schedule retiring every node accepted (err=%v)", err)
	}
	// Leaving node 2 alone is fine.
	if _, err := New(3, []Event{
		{Cycle: 10, Kind: LinkPermanent, Node: -1, A: 0, B: 1},
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCursorDue(t *testing.T) {
	s, err := Parse("perm:0@10\ntrans:1@10+5\nperm:2@30", 8)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Cursor()
	if evs := c.Due(9); evs != nil {
		t.Fatalf("Due(9) = %v, want none", evs)
	}
	evs := c.Due(10)
	if len(evs) != 2 || evs[0].Node != 0 || evs[1].Node != 1 {
		t.Fatalf("Due(10) = %v, want both cycle-10 events in order", evs)
	}
	if evs := c.Due(29); evs != nil {
		t.Fatalf("Due(29) = %v, want none (already consumed)", evs)
	}
	evs = c.Due(1000)
	if len(evs) != 1 || evs[0].Node != 2 {
		t.Fatalf("Due(1000) = %v, want the cycle-30 event", evs)
	}
	if evs := c.Due(1 << 40); evs != nil {
		t.Fatalf("exhausted cursor returned %v", evs)
	}
}

func TestHealthyAt(t *testing.T) {
	s, err := Parse("perm:3@100\ntrans:5@50+40", 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		node  int
		cycle int64
		want  bool
	}{
		{3, 99, true},   // before the permanent fault
		{3, 100, false}, // at the fault
		{3, 1 << 40, false},
		{5, 49, true},  // before the transient
		{5, 50, false}, // inside the window [50, 90)
		{5, 89, false},
		{5, 90, true}, // window over
		{7, 0, true},  // never faulted
	} {
		if got := s.HealthyAt(tc.node, tc.cycle); got != tc.want {
			t.Errorf("HealthyAt(%d, %d) = %v, want %v", tc.node, tc.cycle, got, tc.want)
		}
	}
}

func TestGenerateDeterministicAndValid(t *testing.T) {
	m := topo.NewMesh(4, 4)
	cfg := GenConfig{
		Horizon:   10000,
		Permanent: 3, Transient: 4, Links: 2, TransientDuration: 200,
		Seed: 42,
	}
	a, err := Generate(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("same seed produced different schedules:\n%s\n--\n%s", a, b)
	}
	cfg.Seed = 43
	c, err := Generate(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() == c.String() {
		t.Fatal("different seeds produced identical schedules")
	}

	// Victims are distinct, link endpoints adjacent, cycles in [1, Horizon).
	seen := map[int]bool{}
	var perm, trans, links int
	for _, e := range a.Events() {
		if e.Cycle < 1 || e.Cycle >= cfg.Horizon {
			t.Errorf("event %v outside [1, %d)", e, cfg.Horizon)
		}
		switch e.Kind {
		case RouterPermanent, RouterTransient:
			if seen[e.Node] {
				t.Errorf("victim %d reused", e.Node)
			}
			seen[e.Node] = true
			if e.Kind == RouterPermanent {
				perm++
			} else {
				trans++
				if e.Duration != 200 {
					t.Errorf("transient duration %d, want 200", e.Duration)
				}
			}
		case LinkPermanent:
			links++
			if seen[e.A] {
				t.Errorf("link victim %d reused", e.A)
			}
			seen[e.A] = true
			ax, ay := e.A%4, e.A/4
			bx, by := e.B%4, e.B/4
			if d := abs(ax-bx) + abs(ay-by); d != 1 {
				t.Errorf("link %d-%d not a mesh edge", e.A, e.B)
			}
		}
	}
	if perm != 3 || trans != 4 || links != 2 {
		t.Fatalf("got %d/%d/%d perm/trans/link events, want 3/4/2", perm, trans, links)
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func TestGenerateRejectsUnsurvivable(t *testing.T) {
	_, err := Generate(topo.NewMesh(2, 2), GenConfig{
		Horizon:   1000,
		Permanent: 2, Transient: 1, Links: 1, TransientDuration: 10, Seed: 1,
	})
	if err == nil {
		t.Fatal("unsurvivable config accepted")
	}
	if _, err := Generate(topo.NewMesh(4, 4), GenConfig{Horizon: 1}); err == nil {
		t.Fatal("degenerate horizon accepted")
	}
	if _, err := Generate(topo.NewMesh(4, 4), GenConfig{Horizon: 100, Transient: 1}); err == nil {
		t.Fatal("transient without duration accepted")
	}
}

func TestGenerateManyFaultsOnSmallMesh(t *testing.T) {
	// The near-worst survivable load on a 4x4: 15 of 16 nodes are potential
	// casualties. Link faults draw first, so partners must still exist.
	for seed := int64(0); seed < 20; seed++ {
		s, err := Generate(topo.NewMesh(4, 4), GenConfig{
			Horizon:   10000,
			Permanent: 4, Transient: 5, Links: 3, TransientDuration: 100, Seed: seed,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(s.events) != 12 {
			t.Fatalf("seed %d: %d events, want 12", seed, len(s.events))
		}
	}
}

func TestTripFromLumped(t *testing.T) {
	l := thermal.DefaultLumped()
	const spc = 1e-4 // 10k cycles = 1 s of thermal time

	// Far above TDP: the die must cross the trip point within the horizon.
	hot := 4 * l.SustainablePower()
	ev, ok, err := TripFromLumped(l, hot, l.PCM.MeltK, spc, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("sprint power never tripped")
	}
	if ev.Kind != ThermalTrip || ev.Cycle < 1 || ev.Cycle >= 10000 {
		t.Fatalf("trip event %v outside horizon", ev)
	}
	// Determinism.
	ev2, ok2, _ := TripFromLumped(l, hot, l.PCM.MeltK, spc, 10000)
	if !ok2 || ev2 != ev {
		t.Fatalf("trip not deterministic: %v vs %v", ev, ev2)
	}

	// Sustainable power never reaches the trip temperature.
	if _, ok, err := TripFromLumped(l, 0.5*l.SustainablePower(), l.MaxK, spc, 10000); err != nil || ok {
		t.Fatalf("sustainable power tripped (ok=%v err=%v)", ok, err)
	}

	// Invalid trip temperatures, scaling and powers are rejected by the
	// fault package itself.
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name                  string
		powerW, tripK, perCyc float64
		horizon               int64
	}{
		{"trip at ambient", hot, l.AmbientK, spc, 10000},
		{"trip above junction limit", hot, l.MaxK + 1, spc, 10000},
		{"NaN trip", hot, nan, spc, 10000},
		{"zero seconds-per-cycle", hot, l.PCM.MeltK, 0, 10000},
		{"NaN seconds-per-cycle", hot, l.PCM.MeltK, nan, 10000},
		{"+Inf seconds-per-cycle", hot, l.PCM.MeltK, inf, 10000},
		{"-Inf seconds-per-cycle", hot, l.PCM.MeltK, -inf, 10000},
		{"zero horizon", hot, l.PCM.MeltK, spc, 0},
		{"NaN power", nan, l.PCM.MeltK, spc, 10000},
		{"+Inf power", inf, l.PCM.MeltK, spc, 10000},
		{"negative power", -1, l.PCM.MeltK, spc, 10000},
	} {
		_, ok, err := TripFromLumped(l, c.powerW, c.tripK, c.perCyc, c.horizon)
		if err == nil || ok || !strings.HasPrefix(err.Error(), "fault: ") {
			t.Errorf("%s: got ok=%v err=%v, want a fault: error", c.name, ok, err)
		}
	}
}

// timelineTrip is the trip search as a scan of a Lumped.Timeline sampled
// every step, cycle for cycle: the oracle TripFromLumped must match.
func timelineTrip(l thermal.Lumped, powerW, tripK, secondsPerCycle float64, horizon int64) (Event, bool, error) {
	samples, err := l.Timeline(powerW, secondsPerCycle, float64(horizon)*secondsPerCycle, 1)
	if err != nil {
		return Event{}, false, err
	}
	for _, s := range samples {
		if s.TempK >= tripK {
			c := int64(s.TimeS/secondsPerCycle + 0.5)
			if c < 1 {
				c = 1
			}
			if c >= horizon {
				return Event{}, false, nil
			}
			return Event{Cycle: c, Kind: ThermalTrip, Node: -1, A: -1, B: -1}, true, nil
		}
	}
	return Event{}, false, nil
}

// TestTripFromLumpedMatchesTimeline is the differential test of the
// streamed search against a scan of the full timeline, over powers below
// the melt point, on the melt plateau and far above the sustainable power;
// trip temperatures just above ambient, at the melt point, between melt and
// junction limit (the faults driver's 351.15 K), at the limit, and exactly
// at the temperature the die reaches on cycle 37, where only a >= test
// trips on time; horizons of 1, 2, 10 000 and 50 000 cycles; and per-cycle
// scalings that include the faults driver's 2 s over 3 000, 6 000, 20 000
// and 50 000 cycles and a step coarse enough to sub-step.
func TestTripFromLumpedMatchesTimeline(t *testing.T) {
	l := thermal.DefaultLumped()
	melt := (l.PCM.MeltK - l.AmbientK) / l.RthKperW // power that just reaches the melt point
	powers := []float64{0, 0.5 * melt, (melt + l.SustainablePower()) / 2, 4 * l.SustainablePower(), 25 * l.SustainablePower()}
	trips := []float64{math.Nextafter(l.AmbientK, math.Inf(1)), l.PCM.MeltK, 351.15, l.MaxK}
	horizons := []int64{1, 2, 10000, 50000}
	scalings := []float64{1e-4, 2.0 / 3000, 2.0 / 6000, 2.0 / 20000, 2.0 / 50000, 1e-3, 0.5}
	tripped := 0
	for _, p := range powers {
		for _, spc := range scalings {
			first, err := l.Timeline(p, spc, 37*spc, 1)
			if err != nil {
				t.Fatal(err)
			}
			tripKs := trips
			if at37 := first[len(first)-1].TempK; at37 > l.AmbientK && at37 <= l.MaxK {
				tripKs = append(slices.Clip(trips), at37)
			}
			for _, tripK := range tripKs {
				for _, h := range horizons {
					got, gotOK, err := TripFromLumped(l, p, tripK, spc, h)
					want, wantOK, wantErr := timelineTrip(l, p, tripK, spc, h)
					if err != nil || wantErr != nil {
						t.Fatalf("P=%g trip=%g spc=%g horizon=%d: errors %v / %v", p, tripK, spc, h, err, wantErr)
					}
					if got != want || gotOK != wantOK {
						t.Errorf("P=%g trip=%g spc=%g horizon=%d: streamed (%v, %v), timeline (%v, %v)",
							p, tripK, spc, h, got, gotOK, want, wantOK)
					}
					if gotOK {
						tripped++
					}
				}
			}
		}
	}
	if tripped == 0 {
		t.Fatal("no case tripped")
	}
	t.Logf("%d cases tripped", tripped)
}

// TestTripFromLumpedAllocatesNothing pins the streamed search at zero
// allocations: it keeps one thermal state, not a timeline.
func TestTripFromLumpedAllocatesNothing(t *testing.T) {
	l := thermal.DefaultLumped()
	allocs := testing.AllocsPerRun(5, func() {
		if _, ok, err := TripFromLumped(l, 4*l.SustainablePower(), 351.15, 2.0/50000, 50000); err != nil || !ok {
			t.Fatalf("no trip (err %v)", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("TripFromLumped allocates %.1f objects per call, want 0", allocs)
	}
}
