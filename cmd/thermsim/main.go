// Command thermsim explores the thermal side of NoC-sprinting: sprint
// phase durations for a given chip power or benchmark, the Figure 1
// temperature timeline, and steady-state heat maps.
//
// Examples:
//
//	thermsim -mode phases -power 106
//	thermsim -mode phases -benchmark dedup
//	thermsim -mode timeline -benchmark dedup -dt 1e-4
//	thermsim -mode heatmap -level 4 -floorplan
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"nocsprint/internal/core"
	"nocsprint/internal/thermal"
	"nocsprint/internal/workload"
)

func main() {
	var (
		mode      = flag.String("mode", "phases", "phases|timeline|heatmap")
		powerW    = flag.Float64("power", 0, "constant sprint power in W (overrides -benchmark)")
		benchmark = flag.String("benchmark", "dedup", "PARSEC benchmark for power derivation")
		scheme    = flag.String("scheme", "noc", "sprint scheme: full|fine|noc")
		level     = flag.Int("level", 4, "sprint level for heatmap mode")
		floorplan = flag.Bool("floorplan", false, "apply the thermal-aware floorplan (heatmap mode)")
		dt        = flag.Float64("dt", 1e-4, "timeline integration step (s)")
		horizon   = flag.Float64("horizon", 20, "timeline horizon (s)")
	)
	flag.Parse()
	if err := run(os.Stdout, *mode, *powerW, *benchmark, *scheme, *level, *floorplan, *dt, *horizon); err != nil {
		fmt.Fprintf(os.Stderr, "thermsim: %v\n", err)
		os.Exit(1)
	}
}

func parseScheme(s string) (core.Scheme, error) {
	switch s {
	case "full":
		return core.FullSprinting, nil
	case "fine":
		return core.FineGrained, nil
	case "noc":
		return core.NoCSprinting, nil
	default:
		return 0, fmt.Errorf("unknown scheme %q", s)
	}
}

// run computes one mode's report on the default chip and writes it to w.
// A powerW of 0 derives the sprint power from the benchmark.
func run(w io.Writer, mode string, powerW float64, benchmark, schemeName string, level int, useFloorplan bool, dt, horizon float64) error {
	s, err := core.New(core.DefaultConfig())
	if err != nil {
		return err
	}
	scheme, err := parseScheme(schemeName)
	if err != nil {
		return err
	}

	// Derive the sprint power from the benchmark when not given directly.
	if powerW == 0 && mode != "heatmap" {
		p, err := workload.ByName(benchmark)
		if err != nil {
			return err
		}
		ph, dec, err := s.SprintThermal(p, scheme)
		if err != nil {
			return err
		}
		powerW = dec.PowerW
		fmt.Fprintf(w, "benchmark %s under %v: level %d, chip power %.1f W (incl. sprint uncore)\n",
			benchmark, scheme, dec.Level, powerW)
		if mode == "phases" {
			printPhases(w, ph, s.Config().Lumped)
			return nil
		}
	}

	lumped := s.Config().Lumped
	switch mode {
	case "phases":
		ph, err := lumped.SprintPhases(powerW)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "constant power %.1f W (sustainable TDP %.1f W)\n", powerW, lumped.SustainablePower())
		printPhases(w, ph, lumped)
		return nil

	case "timeline":
		samples, err := lumped.Timeline(powerW, dt, horizon, int(math.Max(1, 0.05/dt)))
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "time(s)  temp(K)  melted")
		for _, smp := range samples {
			fmt.Fprintf(w, "%7.3f  %7.2f  %5.1f%%\n", smp.TimeS, smp.TempK, smp.MeltFraction*100)
		}
		return nil

	case "heatmap":
		hm, err := s.HeatMap(level, scheme, useFloorplan)
		if err != nil {
			return err
		}
		peak, px, py := hm.Peak()
		fmt.Fprintf(w, "scheme %v, level %d, floorplan %v\n", scheme, level, useFloorplan)
		fmt.Fprintf(w, "peak %.2f K at cell (%d,%d); mean %.2f K\n", peak, px, py, hm.Mean())
		grid := s.Config().Grid
		for ty := 0; ty < grid.H; ty++ {
			for tx := 0; tx < grid.W; tx++ {
				fmt.Fprintf(w, " %6.1f", hm.TileMean(tx, ty, grid.Sub))
			}
			fmt.Fprintln(w)
		}
		return nil

	default:
		return fmt.Errorf("unknown mode %q", mode)
	}
}

func printPhases(w io.Writer, ph thermal.Phases, lumped thermal.Lumped) {
	if ph.Sustainable {
		fmt.Fprintln(w, "sprint is SUSTAINABLE: the chip never reaches the thermal limit")
		return
	}
	fmt.Fprintf(w, "phase 1 (ambient %.1fK -> melt %.1fK): %.3f s\n", lumped.AmbientK, lumped.PCM.MeltK, ph.Phase1)
	fmt.Fprintf(w, "phase 2 (PCM melting at %.1fK):        %.3f s\n", lumped.PCM.MeltK, ph.Phase2)
	fmt.Fprintf(w, "phase 3 (melt -> limit %.1fK):          %.3f s\n", lumped.MaxK, ph.Phase3)
	fmt.Fprintf(w, "total sprint duration:                  %.3f s\n", ph.Total())
}
