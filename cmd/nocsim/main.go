// Command nocsim is a standalone synthetic-traffic NoC simulator in the
// spirit of booksim: it drives a mesh (optionally restricted to a sprint
// region with CDOR routing and power gating) with a synthetic pattern at a
// configurable injection rate and reports latency, throughput, and network
// power.
//
// Example:
//
//	nocsim -level 8 -pattern uniform -rate 0.25
//	nocsim -width 8 -height 8 -routing dor -pattern transpose -rate 0.1
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"nocsprint/internal/noc"
	"nocsprint/internal/power"
	"nocsprint/internal/routing"
	"nocsprint/internal/sprint"
	"nocsprint/internal/topo"
	"nocsprint/internal/traffic"
)

func main() {
	var (
		width   = flag.Int("width", 4, "mesh width")
		height  = flag.Int("height", 4, "mesh height")
		vcs     = flag.Int("vcs", 4, "virtual channels per port")
		depth   = flag.Int("bufdepth", 4, "flit buffer depth per VC")
		pktLen  = flag.Int("pktlen", 5, "packet length in flits")
		level   = flag.Int("level", 0, "sprint level in [2, width*height] (0 = full mesh with DOR)")
		pattern = flag.String("pattern", "uniform", "traffic: uniform|transpose|bitcomp|hotspot|neighbor|permutation")
		rate    = flag.Float64("rate", 0.1, "injection rate, flits/cycle/node")
		warmup  = flag.Int("warmup", 2000, "warmup cycles")
		measure = flag.Int("measure", 5000, "measurement cycles")
		drain   = flag.Int("drain", 50000, "drain cycle budget")
		seed    = flag.Int64("seed", 1, "random seed")
		vdd     = flag.Float64("vdd", 1.0, "supply voltage (V)")
		freq    = flag.Float64("freq", 2e9, "clock frequency (Hz)")
	)
	flag.Parse()
	if err := run(os.Stdout, *width, *height, *vcs, *depth, *pktLen, *level, *pattern,
		*rate, *warmup, *measure, *drain, *seed, *vdd, *freq); err != nil {
		fmt.Fprintf(os.Stderr, "nocsim: %v\n", err)
		os.Exit(1)
	}
}

// run simulates one configuration and writes the report to w. The mesh
// needs at least 2 nodes, since traffic needs a source and a destination;
// level must be 0 (the full mesh) or a sprint level in [2, width*height];
// the warmup and drain windows must be non-negative and the measurement
// window at least one cycle.
func run(w io.Writer, width, height, vcs, depth, pktLen, level int, patternName string,
	rate float64, warmup, measure, drain int, seed int64, vdd, freq float64) error {
	cfg := noc.DefaultConfig()
	cfg.Width, cfg.Height = width, height
	cfg.VCs, cfg.BufferDepth, cfg.PacketLength = vcs, depth, pktLen
	if err := cfg.Validate(); err != nil {
		return err
	}
	n := cfg.Nodes()
	if n < 2 {
		return fmt.Errorf("-width %d -height %d: the mesh needs at least 2 nodes", width, height)
	}
	if level != 0 && (level < 2 || level > n) {
		return fmt.Errorf("-level %d: must be 0 (full mesh) or in [2,%d]", level, n)
	}
	if warmup < 0 {
		return fmt.Errorf("-warmup %d: must be >= 0", warmup)
	}
	if measure < 1 {
		return fmt.Errorf("-measure %d: must be >= 1", measure)
	}
	if drain < 0 {
		return fmt.Errorf("-drain %d: must be >= 0", drain)
	}
	m := topo.NewMesh(width, height)

	var (
		alg    routing.Algorithm = routing.NewDOR(m)
		nodes                    = topo.AllNodes(m.Nodes())
		active []int             // nil powers every router
	)
	if level > 0 {
		region := sprint.NewRegion(m, 0, level, sprint.Euclidean)
		alg = routing.NewCDOR(region)
		nodes = region.ActiveNodes()
		active = nodes
	}
	set := traffic.NewSet(nodes)

	var pat traffic.Pattern
	switch patternName {
	case "uniform":
		pat = traffic.NewUniform(set.Size())
	case "transpose":
		if width != height || level > 0 {
			return fmt.Errorf("transpose needs a square full mesh")
		}
		pat = traffic.NewTranspose(width)
	case "bitcomp":
		pat = traffic.NewBitComplement(set.Size())
	case "hotspot":
		pat = traffic.NewHotspot(set.Size(), 0, 0.3)
	case "neighbor":
		pat = traffic.NewNeighbor(set.Size())
	case "permutation":
		pat = traffic.NewPermutation(set.Size(), rand.New(rand.NewSource(seed)))
	default:
		return fmt.Errorf("unknown pattern %q", patternName)
	}

	net, err := noc.New(cfg, alg, active)
	if err != nil {
		return err
	}
	res, err := noc.RunSynthetic(net, set, pat, noc.SimParams{
		InjectionRate: rate,
		WarmupCycles:  warmup,
		MeasureCycles: measure,
		DrainCycles:   drain,
		Seed:          seed,
	})
	if err != nil {
		return err
	}
	params := power.DefaultRouterParams45nm(cfg)
	corner := power.Corner{VDD: vdd, FreqHz: freq}
	bd, err := params.NetworkPower(res.Events, res.MeasureWindow, net.ActiveRouters(), corner)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "mesh            %dx%d, %d VCs x %d flits, %d-flit packets\n",
		width, height, vcs, depth, pktLen)
	fmt.Fprintf(w, "routing         %s (%d routers powered)\n", alg.Name(), net.ActiveRouters())
	fmt.Fprintf(w, "pattern         %s over %d endpoints\n", pat.Name(), set.Size())
	fmt.Fprintf(w, "offered load    %.3f flits/cycle/node\n", rate)
	fmt.Fprintf(w, "accepted load   %.3f flits/cycle/node\n", res.ThroughputFlits)
	fmt.Fprintf(w, "avg latency     %.2f cycles (network-only %.2f)\n", res.AvgLatency, res.AvgNetLatency)
	fmt.Fprintf(w, "packets         %d measured\n", res.MeasuredPackets)
	fmt.Fprintf(w, "saturated       %v\n", res.Saturated)
	fmt.Fprintf(w, "network power   %.3f mW (dynamic %.3f, leakage %.3f) at %.2fV/%.1fGHz\n",
		bd.Total()*1e3, bd.TotalDynamic()*1e3, bd.TotalLeakage()*1e3, vdd, freq/1e9)
	return nil
}
