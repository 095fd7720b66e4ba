package core

import (
	"fmt"
	"io"
	"math"
	"strings"
	"text/tabwriter"

	"nocsprint/internal/power"
)

// This file holds the registry's text renderers: the tables the nocsprint
// CLI prints for each experiment result.

func header(w io.Writer, title string) {
	fmt.Fprintln(w, strings.Repeat("=", 72))
	fmt.Fprintln(w, title)
	fmt.Fprintln(w, strings.Repeat("=", 72))
}

func table(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

func textTable1(out io.Writer, _ *Sprinter, r Table1Result) error {
	header(out, "Table 1: System and Interconnect configuration")
	w := table(out)
	fmt.Fprintf(w, "core count/freq.\t%d, %.0f GHz\n", r.Cores, r.FreqGHz)
	fmt.Fprintf(w, "topology\t%d x %d 2D Mesh\n", r.MeshWidth, r.MeshHeight)
	fmt.Fprintf(w, "router pipeline\t%s\n", r.Pipeline)
	fmt.Fprintf(w, "VC count\t%d VCs per port\n", r.VCs)
	fmt.Fprintf(w, "buffer depth\t%d buffers per VC\n", r.BufferDepth)
	fmt.Fprintf(w, "packet length\t%d flits\n", r.PacketLength)
	fmt.Fprintf(w, "flit length\t%d bytes\n", r.FlitBytes)
	fmt.Fprintf(w, "master node\t%d (top-left, next to MC)\n", r.Master)
	return w.Flush()
}

func textFig2(out io.Writer, _ *Sprinter, rows []Fig2Row) error {
	header(out, "Figure 2: Router power breakdown (dynamic vs leakage)")
	w := table(out)
	fmt.Fprintln(w, "corner\tdynamic (mW)\tleakage (mW)\ttotal (mW)\tleakage share")
	for _, r := range rows {
		dyn, leak := r.Breakdown.TotalDynamic()*1e3, r.Breakdown.TotalLeakage()*1e3
		fmt.Fprintf(w, "%.2fV / %.1fGHz\t%.3f\t%.3f\t%.3f\t%.1f%%\n",
			r.Corner.VDD, r.Corner.FreqHz/1e9, dyn, leak, dyn+leak, 100*leak/(dyn+leak))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(out, "\nper-component at each corner (mW dynamic / mW leakage):")
	w = table(out)
	fmt.Fprint(w, "corner")
	for _, c := range power.Components() {
		fmt.Fprintf(w, "\t%s", c)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%.2fV/%.1fGHz", r.Corner.VDD, r.Corner.FreqHz/1e9)
		for _, c := range power.Components() {
			fmt.Fprintf(w, "\t%.2f/%.2f", r.Breakdown.DynamicW[c]*1e3, r.Breakdown.LeakageW[c]*1e3)
		}
		fmt.Fprintln(w)
	}
	return w.Flush()
}

func textFig3(out io.Writer, _ *Sprinter, rows []Fig3Row) error {
	header(out, "Figure 3: Chip power breakdown at nominal operation")
	w := table(out)
	fmt.Fprint(w, "cores\ttotal (W)")
	for _, c := range power.ChipComponents() {
		fmt.Fprintf(w, "\t%s", c)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%.2f", r.Cores, r.Breakdown.Total())
		for _, c := range power.ChipComponents() {
			fmt.Fprintf(w, "\t%.1f%%", 100*r.Breakdown.Share(c))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "(paper: NoC share 18% / 26% / 35% / 42%)")
	return w.Flush()
}

func textFig4(out io.Writer, _ *Sprinter, rows []Fig4Row) error {
	header(out, "Figure 4: PARSEC execution time vs available cores (T(n)/T(1))")
	w := table(out)
	fmt.Fprint(w, "benchmark")
	for _, n := range rows[0].Cores {
		fmt.Fprintf(w, "\tn=%d", n)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%s", r.Benchmark)
		for _, t := range r.NormTime {
			fmt.Fprintf(w, "\t%.3f", t)
		}
		fmt.Fprintln(w)
	}
	return w.Flush()
}

func textFig7(out io.Writer, _ *Sprinter, res Fig7Result) error {
	header(out, "Figure 7: Execution time per sprinting scheme (seconds)")
	w := table(out)
	fmt.Fprintln(w, "benchmark\tlevel\tnon-sprint\tfull-sprint\tNoC-sprint\tspeedup(NoC)")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%s\t%d\t%.3f\t%.3f\t%.3f\t%.2fx\n",
			r.Benchmark, r.Level, r.NonSprint, r.FullSprint, r.NoCSprint, r.NonSprint/r.NoCSprint)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(out, "\naverage speedup: NoC-sprinting %.2fx (paper 3.6x), full-sprinting %.2fx (paper 1.9x)\n",
		res.AvgSpeedupNoC, res.AvgSpeedupFull)
	return nil
}

func textFig8(out io.Writer, _ *Sprinter, res Fig8Result) error {
	header(out, "Figure 8: Core power dissipation per sprinting scheme (W)")
	w := table(out)
	fmt.Fprintln(w, "benchmark\tlevel\tfull-sprint\tfine-grained\tNoC-sprint")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%s\t%d\t%.1f\t%.1f\t%.1f\n",
			r.Benchmark, r.Level, r.FullSprint, r.FineGrained, r.NoCSprint)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(out, "\naverage core-power saving vs full-sprinting: fine-grained %.1f%% (paper 25.5%%), NoC-sprinting %.1f%% (paper 69.1%%)\n",
		100*res.SavingFineGrained, 100*res.SavingNoC)
	return nil
}

func textFig9Fig10(out io.Writer, _ *Sprinter, res NetResult) error {
	header(out, "Figures 9 & 10: Network latency and power, full vs NoC-sprinting")
	w := table(out)
	fmt.Fprintln(w, "benchmark\tlevel\tlat full (cyc)\tlat NoC (cyc)\tpower full (mW)\tpower NoC (mW)")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%s\t%d\t%.1f\t%.1f\t%.2f\t%.2f\n",
			r.Benchmark, r.Level, r.LatencyFull, r.LatencyNoC, r.PowerFull*1e3, r.PowerNoC*1e3)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(out, "\naverage latency reduction %.1f%% (paper 24.5%%); average network power saving %.1f%% (paper 71.9%%)\n",
		100*res.LatencyReduction, 100*res.PowerSaving)
	return nil
}

func textFig11(out io.Writer, _ *Sprinter, series []Fig11Series) error {
	header(out, "Figure 11: Uniform-random sweep, NoC-sprinting vs full-sprinting")
	for _, ser := range series {
		fmt.Fprintf(out, "\n-- %d-core sprinting --\n", ser.Level)
		w := table(out)
		fmt.Fprintln(w, "rate\tlat NoC\tlat full\tpow NoC (mW)\tpow full (mW)\tsaturated")
		for _, pt := range ser.Points {
			sat := ""
			if pt.SaturatedNoC {
				sat += "NoC "
			}
			if pt.SaturatedFull {
				sat += "full"
			}
			fmt.Fprintf(w, "%.2f\t%.1f\t%.1f\t%.2f\t%.2f\t%s\n",
				pt.Rate, pt.LatencyNoC, pt.LatencyFull, pt.PowerNoC*1e3, pt.PowerFull*1e3, sat)
		}
		if err := w.Flush(); err != nil {
			return err
		}
		fmt.Fprintf(out, "pre-saturation: latency cut %.1f%%, power cut %.1f%%\n",
			100*ser.PreSatLatencyCut, 100*ser.PreSatPowerCut)
	}
	fmt.Fprintln(out, "\n(paper: latency -45.1%/-16.1%, power -62.1%/-25.9% for 4-/8-core)")
	return nil
}

func textFig12(out io.Writer, s *Sprinter, cases []Fig12Case) error {
	header(out, "Figure 12: Steady-state heat maps (dedup, optimal level 4)")
	grid := s.Config().Grid
	paper := []float64{358.3, 347.79, 343.81}
	for i, c := range cases {
		fmt.Fprintf(out, "\n%s: peak %.2f K (paper %.2f K)\n", c.Name, c.PeakK, paper[i])
		// Per-tile mean temperatures as an ASCII grid.
		for ty := 0; ty < grid.H; ty++ {
			for tx := 0; tx < grid.W; tx++ {
				fmt.Fprintf(out, " %6.1f", c.Map.TileMean(tx, ty, grid.Sub))
			}
			fmt.Fprintln(out)
		}
	}
	return nil
}

func textDuration(out io.Writer, _ *Sprinter, res DurationResult) error {
	header(out, "Section 4.4: Sprint duration (seconds)")
	fsec := func(v float64) string {
		if math.IsInf(v, 1) {
			return "sustainable"
		}
		return fmt.Sprintf("%.2f", v)
	}
	w := table(out)
	fmt.Fprintln(w, "benchmark\tlevel\tfull-sprint (s)\tNoC-sprint (s)\tgain\tphases (1/2/3)")
	for _, r := range res.Rows {
		gain := "-"
		if !math.IsInf(r.NoCSprint, 1) && !math.IsInf(r.FullSprint, 1) {
			gain = fmt.Sprintf("+%.1f%%", 100*(r.NoCSprint/r.FullSprint-1))
		}
		fmt.Fprintf(w, "%s\t%d\t%s\t%s\t%s\t%.2f/%.2f/%.2f\n",
			r.Benchmark, r.Level, fsec(r.FullSprint), fsec(r.NoCSprint), gain,
			r.Phases.Phase1, r.Phases.Phase2, r.Phases.Phase3)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(out, "\naverage sprint-duration increase: +%.1f%% (paper +55.4%%)\n", 100*res.AvgIncrease)
	return nil
}

func textGating(out io.Writer, _ *Sprinter, res GatingResult) error {
	header(out, "Extension: network power management — none vs runtime gating vs NoC-sprinting")
	w := table(out)
	fmt.Fprintln(w, "benchmark\tlevel\tlat none\tlat runtime\tlat NoC\tpow none (mW)\tpow runtime\tpow NoC\twakeups\tshort-offs")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%s\t%d\t%.1f\t%.1f\t%.1f\t%.2f\t%.2f\t%.2f\t%d\t%d\n",
			r.Benchmark, r.Level, r.LatNone, r.LatRuntime, r.LatNoC,
			r.PowNone*1e3, r.PowRuntime*1e3, r.PowNoC*1e3, r.Wakeups, r.ShortOffs)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(out, "\naverage network power saving: runtime gating %.1f%%, NoC-sprinting %.1f%%\n",
		100*res.SavingRuntime, 100*res.SavingNoC)
	fmt.Fprintf(out, "average latency penalty of runtime gating: +%.1f%% (NoC-sprinting: none — it shortens paths instead)\n",
		100*res.PenaltyRuntime)
	return nil
}

func textFeedback(out io.Writer, _ *Sprinter, res FeedbackResult) error {
	header(out, "Extension: leakage-temperature feedback — sustainable sprint levels")
	w := table(out)
	fmt.Fprintln(w, "level\tbase power (W)\tsteady T no-FB (K)\tsteady T with-FB (K)\tamplification\tsustainable")
	for _, r := range res.Rows {
		state := "yes"
		if !r.SustainableFB {
			state = "RUNAWAY"
		}
		fmt.Fprintf(w, "%d\t%.1f\t%.1f\t%.1f\t%.3f\t%s\n",
			r.Level, r.BasePowerW, r.NoFeedbackK, r.WithFeedback.TempK, r.WithFeedback.Amplification, state)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(out, "\nmax indefinitely-sustainable level: %d without feedback, %d with feedback\n",
		res.MaxLevelNoFB, res.MaxLevelFB)
	return nil
}

func textController(out io.Writer, _ *Sprinter, rows []ControllerRow) error {
	header(out, "Extension: online sprint controller on a bursty trace")
	w := table(out)
	fmt.Fprintln(w, "scheme\tavg response (s)\tmakespan (s)\tenergy (J)\tpeak (K)\tsprint (s)\tthrottled (s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.2f\t%.2f\t%.0f\t%.1f\t%.2f\t%.2f\n",
			r.Scheme, r.AvgResponseS, r.MakespanS, r.EnergyJ, r.PeakK, r.SprintS, r.ThrottledS)
	}
	return w.Flush()
}

func textWires(out io.Writer, _ *Sprinter, cases []WireCase) error {
	header(out, "Extension: floorplan wire cost and SMART repeated wires (Section 3.3)")
	w := table(out)
	fmt.Fprintln(w, "configuration\tavg latency (cyc)\tpeak temp (K)\tslowest link (cyc)")
	for _, c := range cases {
		fmt.Fprintf(w, "%s\t%.1f\t%.2f\t%d\n", c.Name, c.AvgLatency, c.PeakK, c.MaxLinkCycles)
	}
	return w.Flush()
}

func textScale(out io.Writer, _ *Sprinter, rows []ScaleRow) error {
	header(out, "Extension: mesh scaling (dark silicon grows with core count)")
	w := table(out)
	fmt.Fprintln(w, "mesh\tcores\tNoC share @nominal\tsprint level\tlatency cut\tnet power saving")
	for _, r := range rows {
		fmt.Fprintf(w, "%dx%d\t%d\t%.1f%%\t%d\t%.1f%%\t%.1f%%\n",
			r.Width, r.Width, r.Nodes, 100*r.NoCShareNominal, r.Level,
			100*r.LatencyCut, 100*r.PowerSaving)
	}
	return w.Flush()
}

func textSensitivity(out io.Writer, _ *Sprinter, rows []SensitivityRow) error {
	header(out, "Extension: VC count / buffer depth sensitivity (Table 1 knobs)")
	w := table(out)
	fmt.Fprintln(w, "VCs\tbuffer depth\tsaturation (flits/cyc/node)\tlow-load latency (cyc)")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%d\t%.1f\t%.1f\n", r.VCs, r.BufferDepth, r.SaturationRate, r.ZeroLoadLatency)
	}
	return w.Flush()
}

func textTopology(out io.Writer, _ *Sprinter, rows []TopoRow) error {
	header(out, "Extension: topology comparison at matched router radix")
	w := table(out)
	fmt.Fprintln(w, "topology\trouting\tnodes\tports\tbisection links\tzero-load lat (cyc)\tsaturation (flits/cyc/node)\tlow-load power (W)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%.1f\t%.1f\t%.3f\n",
			r.Spec, r.Routing, r.Nodes, r.Ports, r.BisectionLinks,
			r.ZeroLoadLatency, r.SaturationRate, r.LowLoadPowerW)
	}
	return w.Flush()
}

func textDimDark(out io.Writer, _ *Sprinter, points []DimDarkPoint) error {
	header(out, "Extension: dim silicon vs dark silicon under a power budget")
	w := table(out)
	fmt.Fprintln(w, "budget (W)\tbenchmark\tdark: level@2GHz perf\tdim: level@corner perf\twinner")
	for _, pt := range points {
		winner := "dark"
		if pt.DimWins {
			winner = "DIM"
		}
		dim := "-"
		if pt.DimLevel > 0 {
			dim = fmt.Sprintf("%d@%.2fV/%.1fGHz %.2f", pt.DimLevel, pt.DimCorner.VDD, pt.DimCorner.FreqHz/1e9, pt.DimPerf)
		}
		fmt.Fprintf(w, "%.0f\t%s\t%d %.2f\t%s\t%s\n",
			pt.BudgetW, pt.Benchmark, pt.DarkLevel, pt.DarkPerf, dim, winner)
	}
	return w.Flush()
}

func textLLC(out io.Writer, _ *Sprinter, rows []LLCRow) error {
	header(out, "Extension: Section 3.4 — shared LLC under network power gating")
	w := table(out)
	fmt.Fprintln(w, "configuration\tAMAT (cyc)\tL2 miss rate\tbypass transfers\tnet power (mW)\tcycles")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.1f\t%.3f\t%d\t%.2f\t%d\n",
			r.Name, r.AMAT, r.L2MissRate, r.BypassTransfers, r.NetPowerW*1e3, r.Cycles)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(out, "\n(level-4 sprint; working set sized to fit all 16 banks but overflow 4)")
	return nil
}

func textAblations(out io.Writer, s *Sprinter, r AblationResult) error {
	header(out, "Ablations: the design choices of Sections 3.1-3.2")
	n := s.Mesh().Nodes()
	w := table(out)
	fmt.Fprintln(w, "measure\tpaper's choice\talternative")
	fmt.Fprintf(w, "mean pairwise hops, levels 2-%d\tEuclidean %.3f\tHamming %.3f\n", n, r.EuclideanHops, r.HammingHops)
	fmt.Fprintf(w, "dedup network power (mW)\tgated %.1f\tun-gated %.1f\n", r.GatedPowerW*1e3, r.UngatedPowerW*1e3)
	fmt.Fprintf(w, "dark routers crossed, %d-core region\tCDOR %d\tmesh DOR %d\n", n/2, r.DarkTraversalsCDOR, r.DarkTraversalsDOR)
	return w.Flush()
}

func textFaults(out io.Writer, _ *Sprinter, points []FaultPoint) error {
	header(out, "Extension: fault injection & online sprint-region repair")
	w := table(out)
	fmt.Fprintln(w, "rate/10k\tfaults (P/T/L/trip)\tavail\tdelivered\tdropped\tdrop rate\tlat (cyc)\tfinal level\tmaster\tconvex\trepairs")
	for _, pt := range points {
		fmt.Fprintf(w, "%.0f\t%d (%d/%d/%d/%d)\t%.1f%%\t%d\t%d\t%.3f%%\t%.1f\t%d\t%d\t%v\t%d\n",
			pt.Rate, pt.Faults, pt.Permanent, pt.Transient, pt.LinkFaults, pt.Trips,
			100*pt.Availability, pt.Delivered, pt.Dropped, 100*pt.DropRate,
			pt.AvgLatency, pt.FinalLevel, pt.FinalMaster, pt.FinalConvex, pt.Repairs)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(out, "\ngovernor policy: permanent fault -> region re-formed from the activation")
	fmt.Fprintln(out, "order over survivors (new master elected if the master died); transient")
	fmt.Fprintln(out, "fault -> capped exponential-backoff resume; thermal trip -> sprint level")
	fmt.Fprintln(out, "stepped down. Every repair quiesces and drains the fabric first, so no")
	fmt.Fprintln(out, "flit is ever silently lost: undeliverable traffic lands in `dropped`.")
	return nil
}
