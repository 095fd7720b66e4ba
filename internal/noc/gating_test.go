package noc

import (
	"testing"

	"nocsprint/internal/routing"
	"nocsprint/internal/topo"
	"nocsprint/internal/traffic"
)

func TestEnableRuntimeGatingRejections(t *testing.T) {
	cfg := DefaultConfig()
	m := topo.NewMesh(4, 4)
	net, err := New(cfg, routing.NewDOR(m), nil)
	if err != nil {
		t.Fatal(err)
	}
	net.Step()
	if err := net.EnableRuntimeGating(); err == nil {
		t.Error("gating enabled mid-simulation")
	}
}

// TestRuntimeGatingDelaysColdPacket pins the wake-up penalty: after a long
// idle period every router on the path is gated, so a single packet pays
// roughly one wake-up latency per router it visits.
func TestRuntimeGatingDelaysColdPacket(t *testing.T) {
	cfg := DefaultConfig()
	m := topo.NewMesh(4, 4)

	baseline, err := New(cfg, routing.NewDOR(m), nil)
	if err != nil {
		t.Fatal(err)
	}
	pb := baseline.Enqueue(0, 3)
	runUntilDrained(t, baseline, 1000)

	gated, err := New(cfg, routing.NewDOR(m), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := gated.EnableRuntimeGating(); err != nil {
		t.Fatal(err)
	}
	// Let every router go idle long enough to gate off.
	gated.RunUntil(nil, idleThreshold*4, nil, nil)
	pg := gated.Enqueue(0, 3)
	runUntilDrained(t, gated, 2000)

	base := pb.EjectedAt - pb.CreatedAt
	cold := pg.EjectedAt - pg.CreatedAt
	if cold <= base {
		t.Fatalf("cold-path latency %d not above baseline %d", cold, base)
	}
	// 4 routers on the path, each paying up to wakeupLatency.
	maxPenalty := 4*wakeupLatency + base
	if cold > maxPenalty {
		t.Fatalf("cold-path latency %d exceeds plausible bound %d", cold, maxPenalty)
	}
	stats := gated.GatingStats()
	if !stats.Enabled || stats.Wakeups == 0 || stats.OffCycles == 0 {
		t.Fatalf("gating stats implausible: %+v", stats)
	}
}

// TestRuntimeGatingConservesTraffic runs sustained random traffic under
// runtime gating and checks nothing is lost or reordered per pair.
func TestRuntimeGatingConservesTraffic(t *testing.T) {
	cfg := DefaultConfig()
	m := topo.NewMesh(4, 4)
	net, err := New(cfg, routing.NewDOR(m), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.EnableRuntimeGating(); err != nil {
		t.Fatal(err)
	}
	set := traffic.NewSet(topo.AllNodes(16))
	res, err := RunSynthetic(net, set, traffic.NewUniform(16), SimParams{
		InjectionRate: 0.05, WarmupCycles: 1000, MeasureCycles: 3000, DrainCycles: 30000, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated || res.MeasuredPackets == 0 {
		t.Fatalf("gated run failed: %+v", res)
	}
	// RunSynthetic stops once measured packets drain; flush the stragglers.
	runUntilDrained(t, net, 20000)
	s := net.Stats()
	if s.PacketsCreated != s.PacketsEjected {
		t.Fatalf("lost packets: %d created, %d ejected", s.PacketsCreated, s.PacketsEjected)
	}
	gs := net.GatingStats()
	if gs.OffCycles == 0 {
		t.Error("low load should produce gated cycles")
	}
	if gs.OnFraction() <= 0 || gs.OnFraction() >= 1 {
		t.Errorf("on-fraction %v implausible at low load", gs.OnFraction())
	}
}

// TestRuntimeGatingAddsLatencyVsUngated compares average latency with and
// without runtime gating at a low, bursty load — the §2 observation that
// traffic-driven gating costs performance.
func TestRuntimeGatingAddsLatencyVsUngated(t *testing.T) {
	cfg := DefaultConfig()
	m := topo.NewMesh(4, 4)
	run := func(gate bool) float64 {
		net, err := New(cfg, routing.NewDOR(m), nil)
		if err != nil {
			t.Fatal(err)
		}
		if gate {
			if err := net.EnableRuntimeGating(); err != nil {
				t.Fatal(err)
			}
		}
		res, err := RunSynthetic(net, traffic.NewSet(topo.AllNodes(16)), traffic.NewUniform(16), SimParams{
			InjectionRate: 0.02, WarmupCycles: 1000, MeasureCycles: 4000, DrainCycles: 30000, Seed: 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.AvgLatency
	}
	ungated, gatedLat := run(false), run(true)
	if gatedLat <= ungated {
		t.Errorf("runtime gating latency %v not above ungated %v at sparse load", gatedLat, ungated)
	}
}

// TestRuntimeGatingHighLoadStaysOn verifies routers under continuous load
// rarely gate (idle threshold never reached).
func TestRuntimeGatingHighLoadStaysOn(t *testing.T) {
	cfg := DefaultConfig()
	m := topo.NewMesh(4, 4)
	net, err := New(cfg, routing.NewDOR(m), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.EnableRuntimeGating(); err != nil {
		t.Fatal(err)
	}
	_, err = RunSynthetic(net, traffic.NewSet(topo.AllNodes(16)), traffic.NewUniform(16), SimParams{
		InjectionRate: 0.4, WarmupCycles: 500, MeasureCycles: 3000, DrainCycles: 30000, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	gs := net.GatingStats()
	if gs.OnFraction() < 0.9 {
		t.Errorf("heavy load should keep routers on, on-fraction %v", gs.OnFraction())
	}
}

func TestGatingStatsDisabled(t *testing.T) {
	cfg := DefaultConfig()
	m := topo.NewMesh(4, 4)
	net, err := New(cfg, routing.NewDOR(m), nil)
	if err != nil {
		t.Fatal(err)
	}
	gs := net.GatingStats()
	if gs.Enabled || gs.OnFraction() != 1 {
		t.Errorf("disabled gating stats wrong: %+v", gs)
	}
}
