// Simulator hot-path benchmarks: cycle throughput of noc.Network.Step on
// fig11-class configurations at several active-region levels, plus a
// dark-heavy 8x8 point (one small sprint region, the rest of the mesh
// power-gated) — the regime NoC-sprinting targets and the one the
// active-work scheduler is built for — and a fully powered 4x4 torus and
// C(16;1,4) circulant, whose routers allocate dateline VC classes.
//
// Each configuration has an optimized and a Ref variant; the Ref variant
// pins the pre-optimization full-scan stepper (noc.UseReferenceStepper), so
// the optimized/reference ratio measured in the same process is the
// machine-independent speedup the perf gate tracks. TestBenchSim (gated by
// BENCH_SIM=1) runs the pairs programmatically and emits BENCH_sim.json.
//
// Run with:
//
//	go test -bench 'BenchmarkStep' -run '^$' .
//	BENCH_SIM=1 go test -run TestBenchSim -v .            # compare vs committed BENCH_sim.json
//	BENCH_SIM=1 BENCH_SIM_WRITE=1 go test -run TestBenchSim .  # rewrite BENCH_sim.json
package nocsprint_test

import (
	"encoding/json"
	"math/rand"
	"os"
	"sort"
	"testing"

	"nocsprint/internal/mesh"
	"nocsprint/internal/noc"
	"nocsprint/internal/routing"
	"nocsprint/internal/sprint"
	"nocsprint/internal/topo"
	"nocsprint/internal/traffic"
)

// stepBenchCase is one simulator throughput configuration.
type stepBenchCase struct {
	Name string `json:"name"`
	// Topology is "" for a Width x Height mesh, "torus" for a Width x
	// Height torus, or "circulant" for the ring circulant
	// C(Width*Height; 1, Width); the torus and circulant are fully powered.
	Topology string  `json:"topology,omitempty"`
	Width    int     `json:"width"`
	Height   int     `json:"height"`
	Level    int     `json:"level"` // mesh active-region size; 0 = full mesh, DOR
	Rate     float64 `json:"rate"`  // offered load, flits/cycle/active node
}

// stepBenchCases are the perf-trajectory points: the fig11-class 4x4 sweep
// levels, the dark-dominated 8x8 point (64 routers, 4 powered), and the
// 16-node torus and circulant.
var stepBenchCases = []stepBenchCase{
	{Name: "fig11-4x4-level4", Width: 4, Height: 4, Level: 4, Rate: 0.15},
	{Name: "fig11-4x4-level8", Width: 4, Height: 4, Level: 8, Rate: 0.15},
	{Name: "fig11-4x4-full16", Width: 4, Height: 4, Level: 0, Rate: 0.15},
	{Name: "dark-8x8-level4", Width: 8, Height: 8, Level: 4, Rate: 0.15},
	{Name: "torus-4x4", Topology: "torus", Width: 4, Height: 4, Rate: 0.15},
	{Name: "circulant-16", Topology: "circulant", Width: 4, Height: 4, Rate: 0.15},
}

// newStepBench builds the network and traffic generator for one case.
func newStepBench(tb testing.TB, c stepBenchCase, reference bool) (*noc.Network, func()) {
	tb.Helper()
	cfg := noc.DefaultConfig()
	cfg.Width, cfg.Height = c.Width, c.Height
	m := mesh.New(c.Width, c.Height)
	var (
		net *noc.Network
		err error
		set = traffic.NewSet(benchNodes(m.Nodes()))
	)
	switch {
	case c.Topology == "torus":
		tp, terr := topo.NewTorus(c.Width, c.Height)
		if terr != nil {
			tb.Fatal(terr)
		}
		net, err = noc.NewTopo(cfg, tp, routing.NewTorusDOR(tp), nil)
	case c.Topology == "circulant":
		tp, terr := topo.NewCirculant(c.Width*c.Height, 1, c.Width)
		if terr != nil {
			tb.Fatal(terr)
		}
		alg, aerr := routing.NewRingCirculant(tp)
		if aerr != nil {
			tb.Fatal(aerr)
		}
		net, err = noc.NewTopo(cfg, tp, alg, nil)
	case c.Level > 0:
		region := sprint.NewRegion(m, 0, c.Level, sprint.Euclidean)
		net, err = noc.New(cfg, routing.NewCDOR(region), region.ActiveNodes())
		set = traffic.NewSet(region.ActiveNodes())
	default:
		net, err = noc.New(cfg, routing.NewDOR(m), nil)
	}
	if err != nil {
		tb.Fatal(err)
	}
	net.UseReferenceStepper(reference)
	pattern := traffic.NewUniform(set.Size())
	rng := rand.New(rand.NewSource(7))
	endpoints := set.Nodes()
	pktProb := c.Rate / float64(cfg.PacketLength)
	tick := func() {
		for _, src := range endpoints {
			if rng.Float64() < pktProb {
				net.Enqueue(src, set.PickNode(pattern, src, rng))
			}
		}
		net.Step()
	}
	return net, tick
}

// benchStep measures steady-state cycles/sec for one case.
func benchStep(b *testing.B, c stepBenchCase, reference bool) {
	_, tick := newStepBench(b, c, reference)
	for i := 0; i < 500; i++ { // prime buffers and in-flight population
		tick()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mcycles/s")
}

// BenchmarkStepDarkDominated is the acceptance-gate point: an 8x8 mesh with
// a single 4-node sprint region, 60 of 64 routers dark.
func BenchmarkStepDarkDominated(b *testing.B) {
	benchStep(b, stepBenchCases[3], false)
}

// BenchmarkStepDarkDominatedRef is the same point on the pre-optimization
// full-scan stepper.
func BenchmarkStepDarkDominatedRef(b *testing.B) {
	benchStep(b, stepBenchCases[3], true)
}

func BenchmarkStepFig11Level4(b *testing.B)    { benchStep(b, stepBenchCases[0], false) }
func BenchmarkStepFig11Level4Ref(b *testing.B) { benchStep(b, stepBenchCases[0], true) }
func BenchmarkStepFig11Level8(b *testing.B)    { benchStep(b, stepBenchCases[1], false) }
func BenchmarkStepFig11Level8Ref(b *testing.B) { benchStep(b, stepBenchCases[1], true) }
func BenchmarkStepFig11Full(b *testing.B)      { benchStep(b, stepBenchCases[2], false) }
func BenchmarkStepFig11FullRef(b *testing.B)   { benchStep(b, stepBenchCases[2], true) }
func BenchmarkStepTorus(b *testing.B)          { benchStep(b, stepBenchCases[4], false) }
func BenchmarkStepTorusRef(b *testing.B)       { benchStep(b, stepBenchCases[4], true) }
func BenchmarkStepCirculant(b *testing.B)      { benchStep(b, stepBenchCases[5], false) }
func BenchmarkStepCirculantRef(b *testing.B)   { benchStep(b, stepBenchCases[5], true) }

func benchNodes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// benchSimPoint is one line of BENCH_sim.json.
type benchSimPoint struct {
	stepBenchCase
	// OptimizedNsPerCycle and ReferenceNsPerCycle are absolute times on the
	// machine that wrote the file — informational only, not gated (CI
	// machines differ).
	OptimizedNsPerCycle float64 `json:"optimized_ns_per_cycle"`
	ReferenceNsPerCycle float64 `json:"reference_ns_per_cycle"`
	// Speedup is the median of back-to-back reference/optimized ratio
	// pairs measured in the same process: the machine-independent number
	// the regression gate compares.
	Speedup float64 `json:"speedup"`
	// SpeedupMin is the smallest paired ratio seen while writing the
	// baseline — a conservative lower bound on the real speedup. The
	// regression gate measures fresh medians against this bound (minus the
	// 10% margin) so that shared-runner variance in the committed number
	// itself cannot produce false failures.
	SpeedupMin float64 `json:"speedup_min"`
}

// benchSimFile is the committed perf trajectory (BENCH_sim.json).
type benchSimFile struct {
	// DarkMinSpeedup is the hard floor for the dark-dominated point
	// (acceptance criterion: >= 2x vs the pre-PR stepper).
	DarkMinSpeedup float64         `json:"dark_min_speedup"`
	Points         []benchSimPoint `json:"points"`
}

const benchSimPath = "BENCH_sim.json"

// TestBenchSim is the benchmark harness behind the CI perf gate. Gated by
// BENCH_SIM=1 so plain `go test ./...` stays fast. With BENCH_SIM_WRITE=1
// it rewrites BENCH_sim.json; otherwise it measures the optimized/reference
// speedup of every case and fails when the dark-dominated point falls below
// DarkMinSpeedup or any point regresses more than 10% below the committed
// speedup. Absolute ns/cycle are recorded but never gated: only same-process
// ratios are machine-independent.
func TestBenchSim(t *testing.T) {
	if os.Getenv("BENCH_SIM") == "" {
		t.Skip("set BENCH_SIM=1 to run the simulator perf harness")
	}
	// Noise strategy: each repetition measures the optimized and reference
	// steppers back to back and records their ratio. Sustained load on a
	// shared machine inflates both halves of a pair roughly together, so
	// the paired ratio is far more stable than a ratio of independently
	// measured times; the median over reps then discards pairs where a
	// burst hit only one side. The minimum ns/cycle across reps is kept as
	// the (informational, never gated) absolute cost.
	const reps = 5
	measured := make([]benchSimPoint, len(stepBenchCases))
	for i, c := range stepBenchCases {
		one := func(reference bool) float64 {
			res := testing.Benchmark(func(b *testing.B) { benchStep(b, c, reference) })
			return float64(res.NsPerOp())
		}
		p := benchSimPoint{stepBenchCase: c}
		ratios := make([]float64, 0, reps)
		for r := 0; r < reps; r++ {
			opt, ref := one(false), one(true)
			if p.OptimizedNsPerCycle == 0 || opt < p.OptimizedNsPerCycle {
				p.OptimizedNsPerCycle = opt
			}
			if p.ReferenceNsPerCycle == 0 || ref < p.ReferenceNsPerCycle {
				p.ReferenceNsPerCycle = ref
			}
			ratios = append(ratios, ref/opt)
		}
		sort.Float64s(ratios)
		p.Speedup = ratios[reps/2]
		p.SpeedupMin = ratios[0]
		measured[i] = p
		t.Logf("%-18s optimized %8.0f ns/cycle, reference %8.0f ns/cycle, speedup %.2fx",
			c.Name, p.OptimizedNsPerCycle, p.ReferenceNsPerCycle, p.Speedup)
	}

	if os.Getenv("BENCH_SIM_WRITE") != "" {
		out := benchSimFile{DarkMinSpeedup: 2.0, Points: measured}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(benchSimPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", benchSimPath)
		return
	}

	data, err := os.ReadFile(benchSimPath)
	if err != nil {
		t.Fatalf("missing committed baseline (regenerate with BENCH_SIM=1 BENCH_SIM_WRITE=1): %v", err)
	}
	var baseline benchSimFile
	if err := json.Unmarshal(data, &baseline); err != nil {
		t.Fatalf("corrupt %s: %v", benchSimPath, err)
	}
	committed := make(map[string]benchSimPoint, len(baseline.Points))
	for _, p := range baseline.Points {
		committed[p.Name] = p
	}
	// The fresh numbers ride along as a CI artifact for the perf trajectory.
	if fresh, err := json.MarshalIndent(benchSimFile{DarkMinSpeedup: baseline.DarkMinSpeedup, Points: measured}, "", "  "); err == nil {
		_ = os.WriteFile("BENCH_sim.new.json", append(fresh, '\n'), 0o644)
	}
	for _, p := range measured {
		base, ok := committed[p.Name]
		if !ok {
			t.Errorf("%s: no committed baseline point (regenerate %s)", p.Name, benchSimPath)
			continue
		}
		if p.Name == "dark-8x8-level4" && p.Speedup < baseline.DarkMinSpeedup {
			t.Errorf("%s: speedup %.2fx below the %.1fx acceptance floor", p.Name, p.Speedup, baseline.DarkMinSpeedup)
		}
		bound := base.SpeedupMin
		if bound == 0 {
			bound = base.Speedup // older baseline without the conservative bound
		}
		if floor := 0.9 * bound; p.Speedup < floor {
			t.Errorf("%s: speedup %.2fx regressed >10%% below the committed bound %.2fx (median %.2fx)",
				p.Name, p.Speedup, bound, base.Speedup)
		}
	}
}
