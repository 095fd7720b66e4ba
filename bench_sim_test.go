// Simulator hot-path benchmarks: cycle throughput of noc.Network.Step on
// fig11-class configurations at several active-region levels, plus a
// dark-heavy 8x8 point (one small sprint region, the rest of the mesh
// power-gated) — the regime NoC-sprinting targets and the one the
// per-stage work sets are built for — a fully powered 4x4 torus and
// C(16;1,4) circulant, whose routers allocate dateline VC classes, the
// 8x8 torus and C(64;1,8) past saturation, where most allocation attempts
// fail, and Fig. 11's full-sprinting baseline on a 16x16 chip, where every
// router is powered but only 32 scattered endpoints talk. The saturated
// points are timed over a fixed window on a fresh network per iteration,
// so their source backlog does not grow with b.N.
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
	"runtime"
	"sort"
	"strings"
	"testing"

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
	// Height torus, or "circulant" for the ring circulant C(N; S1, S2); the
	// torus and circulant are fully powered.
	Topology string  `json:"topology,omitempty"`
	Width    int     `json:"width,omitempty"`
	Height   int     `json:"height,omitempty"`
	N        int     `json:"n,omitempty"`
	S1       int     `json:"s1,omitempty"`
	S2       int     `json:"s2,omitempty"`
	Level    int     `json:"level"` // mesh active-region size; 0 = full mesh, DOR
	Rate     float64 `json:"rate"`  // offered load, flits/cycle/active node
	// Saturated marks a load past the fabric's saturation, whose source
	// backlog grows with every cycle run; benchStep times such a case over a
	// fixed window.
	Saturated bool `json:"saturated,omitempty"`
	// Endpoints, when non-zero, is the number of traffic endpoints, drawn
	// at random from every node with a fixed seed, as Fig. 11 maps its
	// full-sprinting baseline; 0 means every active node.
	Endpoints int `json:"endpoints,omitempty"`
}

// stepBenchCases are the perf-trajectory points: the fig11-class 4x4 sweep
// levels, the dark-dominated 8x8 point (64 routers, 4 powered), the
// 16-node torus and circulant, the first saturated rung of the 8x8 torus
// and of C(64;1,8) in the topology study, and the 16x16 full-sprinting
// baseline with 32 endpoints, where nocbench's dark-16x16 spends most of
// its time.
var stepBenchCases = []stepBenchCase{
	{Name: "fig11-4x4-level4", Width: 4, Height: 4, Level: 4, Rate: 0.15},
	{Name: "fig11-4x4-level8", Width: 4, Height: 4, Level: 8, Rate: 0.15},
	{Name: "fig11-4x4-full16", Width: 4, Height: 4, Level: 0, Rate: 0.15},
	{Name: "dark-8x8-level4", Width: 8, Height: 8, Level: 4, Rate: 0.15},
	{Name: "torus-4x4", Topology: "torus", Width: 4, Height: 4, Rate: 0.15},
	{Name: "circulant-16", Topology: "circulant", N: 16, S1: 1, S2: 4, Rate: 0.15},
	{Name: "torus-8x8-sat", Topology: "torus", Width: 8, Height: 8, Rate: 0.4, Saturated: true},
	{Name: "circulant-64-sat", Topology: "circulant", N: 64, S1: 1, S2: 8, Rate: 0.2, Saturated: true},
	{Name: "full-16x16-scatter32", Width: 16, Height: 16, Level: 0, Rate: 0.2, Endpoints: 32},
}

// newStepBench builds the network and traffic generator for one case.
func newStepBench(tb testing.TB, c stepBenchCase, reference bool) (*noc.Network, func()) {
	tb.Helper()
	cfg := noc.DefaultConfig()
	cfg.Width, cfg.Height = c.Width, c.Height
	var (
		net    *noc.Network
		err    error
		region *sprint.Region
	)
	switch {
	case c.Topology == "torus":
		tp, terr := topo.NewTorus(c.Width, c.Height)
		if terr != nil {
			tb.Fatal(terr)
		}
		net, err = noc.NewTopo(cfg, tp, routing.NewTorusDOR(tp), nil)
	case c.Topology == "circulant":
		tp, terr := topo.NewCirculant(c.N, c.S1, c.S2)
		if terr != nil {
			tb.Fatal(terr)
		}
		alg, aerr := routing.NewRingCirculant(tp)
		if aerr != nil {
			tb.Fatal(aerr)
		}
		net, err = noc.NewTopo(cfg, tp, alg, nil)
	case c.Level > 0:
		region = sprint.NewRegion(topo.NewMesh(c.Width, c.Height), 0, c.Level, sprint.Euclidean)
		net, err = noc.New(cfg, routing.NewCDOR(region), region.ActiveNodes())
	default:
		net, err = noc.New(cfg, routing.NewDOR(topo.NewMesh(c.Width, c.Height)), nil)
	}
	if err != nil {
		tb.Fatal(err)
	}
	endpoints := benchNodes(net.Nodes())
	if region != nil {
		endpoints = region.ActiveNodes()
	}
	if c.Endpoints > 0 {
		endpoints = rand.New(rand.NewSource(5)).Perm(net.Nodes())[:c.Endpoints]
	}
	set := traffic.NewSet(endpoints)
	net.UseReferenceStepper(reference)
	pattern := traffic.NewUniform(set.Size())
	rng := rand.New(rand.NewSource(7))
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

// benchStep measures the steady-state cost of one cycle for one case and
// reports it as the ns/cycle metric. A case below saturation steps one
// network for b.N cycles after a 500-cycle prime. A saturated case's source
// backlog would grow with b.N, so, as BenchmarkStepStages does, every
// iteration builds a fresh network, warms it up for 1000 cycles untimed and
// times 2000.
func benchStep(b *testing.B, c stepBenchCase, reference bool) {
	cycles := b.N
	if c.Saturated {
		const warmup, window = 1000, 2000
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			_, tick := newStepBench(b, c, reference)
			for k := 0; k < warmup; k++ {
				tick()
			}
			b.StartTimer()
			for k := 0; k < window; k++ {
				tick()
			}
		}
		cycles = b.N * window
	} else {
		_, tick := newStepBench(b, c, reference)
		for i := 0; i < 500; i++ { // prime buffers and in-flight population
			tick()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tick()
		}
	}
	ns := float64(b.Elapsed().Nanoseconds()) / float64(cycles)
	b.ReportMetric(ns, "ns/cycle")
	b.ReportMetric(1e3/ns, "Mcycles/s")
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

func BenchmarkStepFig11Level4(b *testing.B)     { benchStep(b, stepBenchCases[0], false) }
func BenchmarkStepFig11Level4Ref(b *testing.B)  { benchStep(b, stepBenchCases[0], true) }
func BenchmarkStepFig11Level8(b *testing.B)     { benchStep(b, stepBenchCases[1], false) }
func BenchmarkStepFig11Level8Ref(b *testing.B)  { benchStep(b, stepBenchCases[1], true) }
func BenchmarkStepFig11Full(b *testing.B)       { benchStep(b, stepBenchCases[2], false) }
func BenchmarkStepFig11FullRef(b *testing.B)    { benchStep(b, stepBenchCases[2], true) }
func BenchmarkStepTorus(b *testing.B)           { benchStep(b, stepBenchCases[4], false) }
func BenchmarkStepTorusRef(b *testing.B)        { benchStep(b, stepBenchCases[4], true) }
func BenchmarkStepCirculant(b *testing.B)       { benchStep(b, stepBenchCases[5], false) }
func BenchmarkStepCirculantRef(b *testing.B)    { benchStep(b, stepBenchCases[5], true) }
func BenchmarkStepTorusSat(b *testing.B)        { benchStep(b, stepBenchCases[6], false) }
func BenchmarkStepTorusSatRef(b *testing.B)     { benchStep(b, stepBenchCases[6], true) }
func BenchmarkStepCirculantSat(b *testing.B)    { benchStep(b, stepBenchCases[7], false) }
func BenchmarkStepCirculantSatRef(b *testing.B) { benchStep(b, stepBenchCases[7], true) }
func BenchmarkStepFullScatter(b *testing.B)     { benchStep(b, stepBenchCases[8], false) }
func BenchmarkStepFullScatterRef(b *testing.B)  { benchStep(b, stepBenchCases[8], true) }

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
	DarkMinSpeedup float64 `json:"dark_min_speedup"`
	// Machine is where the points were measured: informational only, not
	// gated, but the speedups depend on it.
	Machine benchMachine    `json:"machine"`
	Points  []benchSimPoint `json:"points"`
}

// benchMachine describes the machine and toolchain a benchmark ran on.
type benchMachine struct {
	// CPU is the first "model name" of /proc/cpuinfo. A VM may report a
	// generic one, so CPUFamily, Model, Stepping and CacheSize keep the
	// first "cpu family", "model", "stepping" and "cache size" too. Each is
	// empty where the file or its line does not exist.
	CPU        string `json:"cpu"`
	CPUFamily  string `json:"cpu_family"`
	Model      string `json:"model"`
	Stepping   string `json:"stepping"`
	CacheSize  string `json:"cache_size"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// hostMachine describes the machine the test runs on.
func hostMachine() benchMachine {
	m := benchMachine{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		m.parseCPUInfo(string(data))
	}
	return m
}

// parseCPUInfo sets m's CPU fields from the first line of each of their
// keys in a /proc/cpuinfo text.
func (m *benchMachine) parseCPUInfo(text string) {
	fields := map[string]*string{
		"model name": &m.CPU, "cpu family": &m.CPUFamily, "model": &m.Model,
		"stepping": &m.Stepping, "cache size": &m.CacheSize,
	}
	for _, line := range strings.Split(text, "\n") {
		key, val, ok := strings.Cut(line, ":")
		if f := fields[strings.TrimSpace(key)]; ok && f != nil {
			*f = strings.TrimSpace(val)
			delete(fields, strings.TrimSpace(key))
		}
	}
}

// TestParseCPUInfo reads the machine record from a two-processor cpuinfo
// text: the first processor's lines win, and "model" and "model name" stay
// apart.
func TestParseCPUInfo(t *testing.T) {
	const text = `processor	: 0
vendor_id	: GenuineIntel
cpu family	: 6
model		: 143
model name	: Intel(R) Xeon(R) Processor
stepping	: 8
cache size	: 107520 KB

processor	: 1
cpu family	: 7
model		: 85
model name	: Other
stepping	: 4
cache size	: 512 KB
`
	var m benchMachine
	m.parseCPUInfo(text)
	want := benchMachine{CPU: "Intel(R) Xeon(R) Processor", CPUFamily: "6", Model: "143", Stepping: "8", CacheSize: "107520 KB"}
	if m != want {
		t.Errorf("parsed %+v, want %+v", m, want)
	}
	m = benchMachine{}
	m.parseCPUInfo("")
	if m != (benchMachine{}) {
		t.Errorf("empty cpuinfo parsed as %+v", m)
	}
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
	machine := hostMachine()
	t.Logf("%s, %s, GOMAXPROCS %d", machine.CPU, machine.GoVersion, machine.GOMAXPROCS)
	measured := make([]benchSimPoint, len(stepBenchCases))
	for i, c := range stepBenchCases {
		one := func(reference bool) float64 {
			res := testing.Benchmark(func(b *testing.B) { benchStep(b, c, reference) })
			return res.Extra["ns/cycle"]
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
		t.Logf("%-20s optimized %8.0f ns/cycle, reference %8.0f ns/cycle, speedup %.2fx",
			c.Name, p.OptimizedNsPerCycle, p.ReferenceNsPerCycle, p.Speedup)
	}

	if os.Getenv("BENCH_SIM_WRITE") != "" {
		out := benchSimFile{DarkMinSpeedup: 2.0, Machine: machine, Points: measured}
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
	if fresh, err := json.MarshalIndent(benchSimFile{DarkMinSpeedup: baseline.DarkMinSpeedup, Machine: machine, Points: measured}, "", "  "); err == nil {
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
