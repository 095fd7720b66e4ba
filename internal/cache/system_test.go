package cache

import (
	"context"
	"errors"
	"testing"

	"nocsprint/internal/mesh"
	"nocsprint/internal/noc"
	"nocsprint/internal/routing"
	"nocsprint/internal/sprint"
)

// testConfig scales the hierarchy down so unit tests create cache pressure
// with few accesses.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.L1Sets, cfg.L1Ways = 16, 2 // 2 KB
	cfg.L2Sets, cfg.L2Ways = 64, 4 // 16 KB per bank (256 lines)
	cfg.MemCycles = 100
	return cfg
}

func testStreamParams(node int) StreamParams {
	return StreamParams{
		// 4 cores x 800 + 128 shared ≈ 3.3k lines: fits the 16-bank LLC
		// (4k lines) but overflows the 4 active banks (1k lines) — the
		// capacity cliff the remap policy falls off.
		WorkingSetLines: 800,
		SharedLines:     128,
		SeqProb:         0.6,
		SharedProb:      0.2,
		WriteProb:       0.25,
		PrivateBase:     uint64(1+node) << 24,
		Seed:            int64(100 + node),
	}
}

// buildSystem wires a memory system over a sprint region.
func buildSystem(t *testing.T, level int, policy HomePolicy, fullNetwork bool) *System {
	t.Helper()
	ncfg := noc.DefaultConfig()
	ncfg.Classes = 2
	m := mesh.New(4, 4)
	region := sprint.NewRegion(m, 0, level, sprint.Euclidean)
	var (
		net *noc.Network
		err error
	)
	if fullNetwork {
		net, err = noc.New(ncfg, routing.NewDOR(m), nil)
	} else {
		net, err = noc.New(ncfg, routing.NewCDOR(region), region.ActiveNodes())
	}
	if err != nil {
		t.Fatal(err)
	}
	mk := func(node int) *Stream {
		s, err := NewStream(testStreamParams(node))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	sys, err := NewSystem(testConfig(), net, region, policy, !fullNetwork, mk)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestSystemRejectsSingleClassNetwork(t *testing.T) {
	ncfg := noc.DefaultConfig() // Classes = 1
	m := mesh.New(4, 4)
	region := sprint.NewRegion(m, 0, 4, sprint.Euclidean)
	net, err := noc.New(ncfg, routing.NewDOR(m), nil)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(node int) *Stream {
		s, _ := NewStream(testStreamParams(node))
		return s
	}
	if _, err := NewSystem(testConfig(), net, region, HomeAllTiles, true, mk); err == nil {
		t.Error("single-class network accepted")
	}
	if _, err := NewSystem(Config{}, net, region, HomeAllTiles, true, mk); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := NewSystem(testConfig(), net, region, HomePolicy(9), true, mk); err == nil {
		t.Error("unknown policy accepted")
	}
}

// TestClosedLoopCompletes is the core correctness check: every access
// retires, every miss gets exactly one response, and the run drains.
func TestClosedLoopCompletes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		level  int
		policy HomePolicy
		full   bool
	}{
		{"full-mesh-all-banks", 4, HomeAllTiles, true},
		{"sprint-remap", 4, HomeActiveOnly, false},
		{"sprint-bypass", 4, HomeAllTiles, false},
		{"sprint-level8-bypass", 8, HomeAllTiles, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := buildSystem(t, tc.level, tc.policy, tc.full)
			const perCore = 1000
			if err := sys.RunCtx(nil, perCore, 2_000_000); err != nil {
				t.Fatal(err)
			}
			st := sys.Stats()
			want := int64(perCore * tc.level)
			if st.Accesses != want {
				t.Fatalf("%d accesses, want %d", st.Accesses, want)
			}
			misses := st.Accesses - st.L1Hits
			if st.CompletedResponses != misses {
				t.Fatalf("%d responses for %d misses", st.CompletedResponses, misses)
			}
			if st.L1Hits == 0 || misses == 0 {
				t.Fatalf("degenerate hit/miss split: %+v", st)
			}
			if st.StallCycles <= 0 {
				t.Fatal("misses recorded no stalls")
			}
		})
	}
}

// TestRemapLosesCapacity pins the §3.4 trade-off: homing only on the active
// region's banks shrinks LLC capacity, so the L2 miss rate — and with it
// the AMAT — rises versus the bypass policy that keeps all 16 banks.
func TestRemapLosesCapacity(t *testing.T) {
	bypass := buildSystem(t, 4, HomeAllTiles, false)
	if err := bypass.RunCtx(nil, 1800, 3_000_000); err != nil {
		t.Fatal(err)
	}
	remap := buildSystem(t, 4, HomeActiveOnly, false)
	if err := remap.RunCtx(nil, 1800, 3_000_000); err != nil {
		t.Fatal(err)
	}
	b, r := bypass.Stats(), remap.Stats()
	if r.L2MissRate() <= b.L2MissRate() {
		t.Errorf("remap L2 miss rate %.3f not above bypass %.3f", r.L2MissRate(), b.L2MissRate())
	}
	if r.AMAT() <= b.AMAT() {
		t.Errorf("remap AMAT %.2f not above bypass %.2f", r.AMAT(), b.AMAT())
	}
	// Bypass traffic exists only under the all-tiles policy.
	if b.BypassTransfers == 0 {
		t.Error("bypass policy produced no bypass transfers")
	}
	if r.BypassTransfers != 0 {
		t.Error("remap policy used the bypass path")
	}
}

// TestBypassKeepsRoutersDark: with the all-tiles policy on a gated network,
// dark routers must still see zero events — bypass paths reach the banks
// without waking them (the §3.4 requirement).
func TestBypassKeepsRoutersDark(t *testing.T) {
	sys := buildSystem(t, 4, HomeAllTiles, false)
	if err := sys.RunCtx(nil, 1500, 2_000_000); err != nil {
		t.Fatal(err)
	}
	m := mesh.New(4, 4)
	region := sprint.NewRegion(m, 0, 4, sprint.Euclidean)
	for _, id := range region.DarkNodes() {
		if ev := sys.net.RouterEvents(id); ev != (noc.Events{}) {
			t.Fatalf("dark router %d saw events %+v", id, ev)
		}
	}
	if sys.Stats().BypassTransfers == 0 {
		t.Fatal("no bypass transfers despite dark homes")
	}
}

func TestHomeDistribution(t *testing.T) {
	sys := buildSystem(t, 4, HomeActiveOnly, false)
	m := mesh.New(4, 4)
	region := sprint.NewRegion(m, 0, 4, sprint.Euclidean)
	active := map[int]bool{}
	for _, id := range region.ActiveNodes() {
		active[id] = true
	}
	for line := uint64(0); line < 1000; line++ {
		if !active[sys.Home(line)] {
			t.Fatalf("line %d homed at dark node %d", line, sys.Home(line))
		}
	}
	// All-tiles policy spreads over every node.
	sys2 := buildSystem(t, 4, HomeAllTiles, false)
	seen := map[int]bool{}
	for line := uint64(0); line < 1000; line++ {
		seen[sys2.Home(line)] = true
	}
	if len(seen) != 16 {
		t.Fatalf("all-tiles policy used %d homes", len(seen))
	}
}

func TestHorizonError(t *testing.T) {
	sys := buildSystem(t, 4, HomeAllTiles, false)
	if err := sys.RunCtx(nil, 100000, 100); err == nil {
		t.Error("impossible horizon accepted")
	}
}

// TestExactHorizon: a run whose work completes on its last permitted step
// succeeds with the unbounded run's Stats and Cycles, and one cycle less
// still fails.
func TestExactHorizon(t *testing.T) {
	const perCore = 200
	free := buildSystem(t, 4, HomeAllTiles, false)
	if err := free.RunCtx(nil, perCore, 2_000_000); err != nil {
		t.Fatal(err)
	}
	need := free.Cycles()
	exact := buildSystem(t, 4, HomeAllTiles, false)
	if err := exact.RunCtx(nil, perCore, need); err != nil {
		t.Fatalf("horizon %d, the unbounded run's length: %v", need, err)
	}
	if exact.Stats() != free.Stats() || exact.Cycles() != need {
		t.Errorf("exact-horizon run differs:\nunbounded: %+v (%d cycles)\nexact:     %+v (%d cycles)",
			free.Stats(), need, exact.Stats(), exact.Cycles())
	}
	short := buildSystem(t, 4, HomeAllTiles, false)
	if err := short.RunCtx(nil, perCore, need-1); err == nil {
		t.Errorf("horizon %d, one cycle short, accepted", need-1)
	}
}

func TestPolicyString(t *testing.T) {
	if HomeAllTiles.String() != "all-tiles+bypass" || HomeActiveOnly.String() != "active-only" {
		t.Error("policy names wrong")
	}
	if HomePolicy(9).String() == "" {
		t.Error("unknown policy name empty")
	}
}

// TestRunCtxCancellation pins the cancellation contract of the closed-loop
// driver: a pre-cancelled context stops RunCtx before its first step with a
// wrapped ctx error, a nil context never cancels, and an uncancelled
// context leaves results identical to a nil one.
func TestRunCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sys := buildSystem(t, 4, HomeAllTiles, false)
	err := sys.RunCtx(ctx, 1000, 2_000_000)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled ctx: err = %v, want context.Canceled", err)
	}
	if c := sys.Cycles(); c != 0 {
		t.Fatalf("pre-cancelled ctx stepped %d cycles, want 0", c)
	}

	plain := buildSystem(t, 4, HomeAllTiles, false)
	if err := plain.RunCtx(nil, 500, 2_000_000); err != nil {
		t.Fatal(err)
	}
	under := buildSystem(t, 4, HomeAllTiles, false)
	if err := under.RunCtx(context.Background(), 500, 2_000_000); err != nil {
		t.Fatal(err)
	}
	if plain.Stats() != under.Stats() || plain.Cycles() != under.Cycles() {
		t.Errorf("context poll perturbed the run:\nnil ctx:  %+v (%d cycles)\nlive ctx: %+v (%d cycles)",
			plain.Stats(), plain.Cycles(), under.Stats(), under.Cycles())
	}
}
