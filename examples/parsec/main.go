// PARSEC study (the Figures 7-10 scenario): run the whole benchmark suite
// through the sprint controller, comparing execution time and core power
// across schemes, then push two representative benchmarks' traffic through
// the cycle-accurate NoC to compare network latency and power between
// full-sprinting and NoC-sprinting.
package main

import (
	"fmt"
	"log"

	"nocsprint/internal/core"
	"nocsprint/internal/workload"
)

func main() {
	sprinter, err := core.New(core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("benchmark      level   exec non / full / NoC (s)      core power full / fine / NoC (W)")
	var spNoC, spFull float64
	for _, p := range workload.Profiles() {
		non, err := sprinter.Decide(p, core.NonSprinting)
		if err != nil {
			log.Fatal(err)
		}
		full, err := sprinter.Decide(p, core.FullSprinting)
		if err != nil {
			log.Fatal(err)
		}
		fine, err := sprinter.Decide(p, core.FineGrained)
		if err != nil {
			log.Fatal(err)
		}
		nocs, err := sprinter.Decide(p, core.NoCSprinting)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %5d   %.3f / %.3f / %.3f           %5.1f / %5.1f / %5.1f\n",
			p.Name, nocs.Level, non.ExecSeconds, full.ExecSeconds, nocs.ExecSeconds,
			full.CorePowerW, fine.CorePowerW, nocs.CorePowerW)
		spNoC += non.ExecSeconds / nocs.ExecSeconds
		spFull += non.ExecSeconds / full.ExecSeconds
	}
	n := float64(len(workload.Profiles()))
	fmt.Printf("\naverage speedup vs non-sprinting: NoC-sprinting %.2fx, full-sprinting %.2fx\n",
		spNoC/n, spFull/n)

	// Network behaviour for two contrasting benchmarks: dedup (level 4)
	// and streamcluster (heaviest traffic in the suite), at the default
	// simulation windows `nocsprint fig9` runs.
	fmt.Println("\nnetwork evaluation (cycle-accurate simulator):")
	var sim core.NetSimParams
	for _, name := range []string{"dedup", "streamcluster"} {
		p, err := workload.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		full, err := sprinter.EvaluateNetwork(p, core.FullSprinting, sim)
		if err != nil {
			log.Fatal(err)
		}
		nocs, err := sprinter.EvaluateNetwork(p, core.NoCSprinting, sim)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-14s inj=%.2f  latency %5.1f -> %5.1f cycles (-%4.1f%%)   power %6.1f -> %5.1f mW (-%4.1f%%)\n",
			name, p.InjRate,
			full.AvgLatency, nocs.AvgLatency, 100*(1-nocs.AvgLatency/full.AvgLatency),
			full.NetPower.Total()*1e3, nocs.NetPower.Total()*1e3,
			100*(1-nocs.NetPower.Total()/full.NetPower.Total()))
	}
}
