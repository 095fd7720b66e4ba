package nocsprint_test

import (
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"nocsprint/internal/core"
	"nocsprint/internal/power"
)

// docQuote is one fragment of EXPERIMENTS.md, exactly as printed, with each
// measured number in brackets, and the results those numbers must print, in
// the order they appear. A number is compared at the precision it is
// printed with, so a rounded "3.68" matches any result in [3.675, 3.685).
type docQuote struct {
	text string
	got  []float64
}

func quote(text string, got ...float64) docQuote { return docQuote{text, got} }

var bracketed = regexp.MustCompile(`\[([^\]]*)\]`)

// TestExperimentsDocQuotesRegistryResults runs every registry entry that
// EXPERIMENTS.md quotes, once, as `nocsprint <name>` does (full windows,
// default NetSimParams), and requires every measured number on that page
// to print the typed result at the page's precision. Editing a number in
// the page or drifting a result fails here.
func TestExperimentsDocQuotesRegistryResults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quoted registry entries at full windows")
	}
	raw, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := strings.Join(strings.Fields(string(raw)), " ")
	for _, q := range docQuotes(t) {
		text := bracketed.ReplaceAllString(q.text, "$1")
		if !strings.Contains(doc, text) {
			t.Errorf("EXPERIMENTS.md no longer says %q", text)
			continue
		}
		printed := bracketed.FindAllStringSubmatch(q.text, -1)
		if len(printed) != len(q.got) {
			t.Fatalf("%q brackets %d numbers but the row gives %d results", q.text, len(printed), len(q.got))
		}
		for i, m := range printed {
			decimals := 0
			if dot := strings.IndexByte(m[1], '.'); dot >= 0 {
				decimals = len(m[1]) - dot - 1
			}
			if got := strconv.FormatFloat(q.got[i], 'f', decimals, 64); got != m[1] {
				t.Errorf("%q: the result prints %s where EXPERIMENTS.md says %s", text, got, m[1])
			}
		}
	}
}

// result runs the named registry entry without -fast and returns its typed
// result.
func result[R any](t *testing.T, name string) R {
	t.Helper()
	e, ok := core.LookupExperiment(name)
	if !ok {
		t.Fatalf("no registry entry %q", name)
	}
	res, err := e.Run(core.NetSimParams{}, false)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	r, ok := res.(R)
	if !ok {
		t.Fatalf("%s returns a %T", name, res)
	}
	return r
}

// docQuotes lists every measured number EXPERIMENTS.md quotes, in page
// order, beside the registry result it prints. Percentages are scaled to
// the printed unit; a number printed after "−" is quoted as its magnitude.
func docQuotes(t *testing.T) []docQuote {
	pct := func(x float64) float64 { return 100 * x }
	mW := func(w float64) float64 { return 1e3 * w }

	t1 := result[core.Table1Result](t, "table1")
	fig2 := result[[]core.Fig2Row](t, "fig2")
	fig3 := result[[]core.Fig3Row](t, "fig3")
	fig7 := result[core.Fig7Result](t, "fig7")
	fig8 := result[core.Fig8Result](t, "fig8")
	net := result[core.NetResult](t, "fig9") // fig10 resolves to this entry
	fig11 := result[[]core.Fig11Series](t, "fig11")
	fig12 := result[[]core.Fig12Case](t, "fig12")
	dur := result[core.DurationResult](t, "duration")
	abl := result[core.AblationResult](t, "ablations")
	gating := result[core.GatingResult](t, "gating")
	wires := result[[]core.WireCase](t, "wires")
	scale := result[[]core.ScaleRow](t, "scale")
	fb := result[core.FeedbackResult](t, "feedback")
	dim := result[[]core.DimDarkPoint](t, "dimdark")
	ctl := result[[]core.ControllerRow](t, "controller")
	sens := result[[]core.SensitivityRow](t, "sensitivity")
	llc := result[[]core.LLCRow](t, "llc")

	fig2Row := func(i int) []float64 {
		b := fig2[i].Breakdown
		return []float64{mW(b.Total()), pct(b.TotalLeakage() / b.Total())}
	}
	fig3Share := func(i int, c power.ChipComponent) float64 { return pct(fig3[i].Breakdown.Share(c)) }
	var nocFaster, levels float64
	for _, r := range fig7.Rows {
		if r.NoCSprint <= r.FullSprint {
			nocFaster++
		}
		levels += float64(r.Level)
	}
	fig8Row := func(name string) []float64 {
		for _, r := range fig8.Rows {
			if r.Benchmark == name {
				return []float64{float64(r.Level), pct(1 - r.NoCSprint/r.FullSprint)}
			}
		}
		t.Fatalf("fig8 has no %s row", name)
		return nil
	}
	netRow := func(name string) []float64 {
		for _, r := range net.Rows {
			if r.Benchmark == name {
				return []float64{float64(r.Level), pct(1 - r.LatencyNoC/r.LatencyFull), pct(1 - r.PowerNoC/r.PowerFull)}
			}
		}
		t.Fatalf("fig9 has no %s row", name)
		return nil
	}
	freqmine, blackscholes := netRow("freqmine"), netRow("blackscholes")
	var worstFull, level16Gain float64 // level16Gain: the one farthest from 0
	for _, r := range dur.Rows {
		worstFull = math.Max(worstFull, r.FullSprint)
		if g := pct(r.NoCSprint/r.FullSprint - 1); r.Level == 16 && math.Abs(g) > math.Abs(level16Gain) {
			level16Gain = g
		}
	}
	var nocLatCut []float64
	for _, r := range gating.Rows {
		nocLatCut = append(nocLatCut, 1-r.LatNoC/r.LatNone)
	}
	wireRow := func(i int) []float64 {
		return []float64{wires[i].AvgLatency, wires[i].PeakK, float64(wires[i].MaxLinkCycles)}
	}
	scaleRow := func(i int) []float64 {
		return []float64{pct(scale[i].NoCShareNominal), pct(scale[i].LatencyCut), pct(scale[i].PowerSaving)}
	}
	var tight core.DimDarkPoint
	for _, p := range dim {
		if p.BudgetW == 25 && p.Benchmark == "blackscholes" {
			tight = p
		}
	}
	ctlRow := func(i int) []float64 { return []float64{ctl[i].AvgResponseS, ctl[i].EnergyJ, ctl[i].ThrottledS} }
	sensLat := func(depth func(int) bool) (lo, hi float64) {
		lo = math.Inf(1)
		for _, r := range sens {
			if depth(r.BufferDepth) {
				lo, hi = math.Min(lo, r.ZeroLoadLatency), math.Max(hi, r.ZeroLoadLatency)
			}
		}
		return lo, hi
	}
	sensSat := func(vcs, depth int) float64 {
		for _, r := range sens {
			if r.VCs == vcs && r.BufferDepth == depth {
				return r.SaturationRate
			}
		}
		t.Fatalf("sensitivity has no %d x %d row", vcs, depth)
		return 0
	}
	deepLo, deepHi := sensLat(func(d int) bool { return d >= 4 })
	shallowLo, shallowHi := sensLat(func(d int) bool { return d == 2 })
	llcRow := func(i int) []float64 { return []float64{llc[i].AMAT, llc[i].L2MissRate, mW(llc[i].NetPowerW)} }

	return []docQuote{
		quote("Reproduced exactly: [16] cores @ [2] GHz, [4]×[4] mesh, five-stage routers, [4] VCs × [4]-flit buffers, [5]-flit packets, [16]-byte flits",
			float64(t1.Cores), t1.FreqGHz, float64(t1.MeshWidth), float64(t1.MeshHeight),
			float64(t1.VCs), float64(t1.BufferDepth), float64(t1.PacketLength), float64(t1.FlitBytes)),
		quote("| 1.0 V / 2 GHz | leakage a significant share | [8.70] mW total, leakage [43.0] % |", fig2Row(0)...),
		quote("| 0.9 V / 1.5 GHz | share grows | [6.38] mW, leakage [52.8] % |", fig2Row(1)...),
		quote("| 0.75 V / 1 GHz | leakage can exceed dynamic | [4.20] mW, leakage [66.8] % |", fig2Row(2)...),
		quote("| 4 | 18 % | [17.4] % |", fig3Share(0, power.CompNoC)),
		quote("| 8 | 26 % | [26.1] % |", fig3Share(1, power.CompNoC)),
		quote("| 16 | 35 % | [34.7] % |", fig3Share(2, power.CompNoC)),
		quote("| 32 | 42 % | [41.6] % |", fig3Share(3, power.CompNoC)),
		quote("silicon grows ([43] % → [13.5] %)", fig3Share(0, power.CompCore), fig3Share(3, power.CompCore)),
		quote("| Avg speedup, NoC-sprinting vs non-sprinting | 3.6× | [3.68]× |", fig7.AvgSpeedupNoC),
		quote("| Avg speedup, full-sprinting vs non-sprinting | 1.9× | [2.12]× |", fig7.AvgSpeedupFull),
		quote("| NoC-sprinting ≥ full-sprinting per benchmark | yes | yes (all [12]) |", nocFaster),
		quote("| Fine-grained (no gating) saving vs full | 25.5 % | [25.0] % |", pct(fig8.SavingFineGrained)),
		quote("| NoC-sprinting saving vs full | 69.1 % | [61.3] % |", pct(fig8.SavingNoC)),
		quote("yes (level [16] ⇒ [0] %)", fig8Row("blackscholes")...),
		quote("yes (level [16] ⇒ [0] %)", fig8Row("bodytrack")...),
		quote("calibrated optimal levels average [6.2] cores", levels/float64(len(fig7.Rows))),
		quote("| Avg network latency reduction | 24.5 % | [22.9] % |", pct(net.LatencyReduction)),
		quote("| Avg network power saving | 71.9 % | [63.6] % |", pct(net.PowerSaving)),
		quote("(freqmine, level [2]: −[38] % latency, −[88] % power; blackscholes, level [16]: ≈ 0 on both)",
			freqmine[0], freqmine[1], freqmine[2], blackscholes[0]),
		quote("| 4-core pre-saturation latency cut | 45.1 % | [26.0] % |", pct(fig11[0].PreSatLatencyCut)),
		quote("| 8-core pre-saturation latency cut | 16.1 % | [13.7] % |", pct(fig11[1].PreSatLatencyCut)),
		quote("| 4-core network power cut | 62.1 % | [69.4] % |", pct(fig11[0].PreSatPowerCut)),
		quote("| 8-core network power cut | 25.9 % | [43.1] % |", pct(fig11[1].PreSatPowerCut)),
		quote("([26] % → [14] %, paper 45 % → 16 %)", pct(fig11[0].PreSatLatencyCut), pct(fig11[1].PreSatLatencyCut)),
		quote("([69] % → [43] %, paper 62 % → 26 %)", pct(fig11[0].PreSatPowerCut), pct(fig11[1].PreSatPowerCut)),
		quote("(≈[16] cycles at zero load)", fig11[0].Points[0].LatencyNoC),
		quote("| Full-sprinting | 358.30 K | [358.25] K |", fig12[0].PeakK),
		quote("| Fine-grained, clustered placement | 347.79 K | [347.97] K |", fig12[1].PeakK),
		quote("| With thermal-aware floorplan | 343.81 K | [343.90] K |", fig12[2].PeakK),
		quote("| Full-sprinting duration | ~1 s worst case | [1.01] s |", worstFull),
		quote("| Avg duration increase, NoC-sprinting | +55.4 % | +[60.5] % |", pct(dur.AvgIncrease)),
		quote("level-16 benchmarks gain [0] %", level16Gain),
		quote("levels 2..16 — [2.023] (Euclidean) vs [2.108] (Hamming)", abl.EuclideanHops, abl.HammingHops),
		quote("4-core peak [347.97] K → [343.90] K (Figure 12's last two cases, `fig12`)", fig12[1].PeakK, fig12[2].PeakK),
		quote("dedup's 4-core network power [137.4] mW un-gated → [42.2] mW gated", mW(abl.UngatedPowerW), mW(abl.GatedPowerW)),
		quote("DOR's paths cross dark routers [4] times; CDOR's cross [0]",
			float64(abl.DarkTraversalsDOR), float64(abl.DarkTraversalsCDOR)),
		quote("| Runtime gating (NoRD/Catnap class) | [6.0] % | +[21.1] % |", pct(gating.SavingRuntime), pct(gating.PenaltyRuntime)),
		quote("| NoC-sprinting (static region gating) | [63.4] % | −[23] % (it *shortens* paths) |",
			pct(gating.SavingNoC), pct(mean(nocLatCut))),
		quote("| Identity placement | [17.8] cyc | [347.97] K | [1] cyc |", wireRow(0)...),
		quote("| Floorplanned, plain wires | [23.8] cyc (+[33] %) | [343.90] K | [5] cyc |",
			wires[1].AvgLatency, pct(wires[1].AvgLatency/wires[0].AvgLatency-1), wires[1].PeakK, float64(wires[1].MaxLinkCycles)),
		quote("| Floorplanned, SMART wires | [17.8] cyc | [343.90] K | [1] cyc |", wireRow(2)...),
		quote("floorplan's [4] K peak reduction", wires[0].PeakK-wires[1].PeakK),
		quote("| 4×4 | 16 | [34.7] % | [10.7] % | [70.8] % |", scaleRow(0)...),
		quote("| 6×6 | 36 | [42.5] % | [26.0] % | [70.5] % |", scaleRow(1)...),
		quote("| 8×8 | 64 | [46.2] % | [36.2] % | [70.2] % |", scaleRow(2)...),
		quote("sprint level drops from [4] to [3] of 16 cores once leakage feedback is counted (≈[81] % of the chip is dark",
			float64(fb.MaxLevelNoFB), float64(fb.MaxLevelFB), pct(1-float64(fb.MaxLevelFB)/float64(t1.Cores))),
		quote("([3] cores at [0.9] V/[1.5] GHz beats [2] cores at 1 V/2 GHz for blackscholes)",
			float64(tight.DimLevel), tight.DimCorner.VDD, tight.DimCorner.FreqHz/1e9, float64(tight.DarkLevel)),
		quote("| Non-sprinting | [1.20] s | [1521] J | [0] s |", ctlRow(0)...),
		quote("| Full-sprinting | [1.21] s | [1863] J | [5.2] s |", ctlRow(1)...),
		quote("| NoC-sprinting | [0.40] s | [1746] J | [0.06] s |", ctlRow(2)...),
		quote("NoC-sprinting answers bursts [3]× faster", ctl[1].AvgResponseS/ctl[2].AvgResponseS),
		quote("grows from [0.3] (2 VCs × 2-deep) to [0.8] flits/cycle/node (8 × 8)", sensSat(2, 2), sensSat(8, 8)),
		quote("low-load latency is flat ([23.5]–[23.9] cyc) once buffers are 4 deep", deepLo, deepHi),
		quote("2-deep buffers stretch wormhole packets ([28.7]–[29.2] cyc)", shallowLo, shallowHi),
		quote("| Full network, all banks | [119.2] cyc | [0.463] | [133.8] mW |", llcRow(0)...),
		quote("| Gated + remap to active banks | [126.7] cyc | [0.679] | [35.5] mW |", llcRow(1)...),
		quote("| Gated + bypass paths (paper's choice) | [101.9] cyc | [0.463] | [33.2] mW |", llcRow(2)...),
		quote("the gated network burns [4]× less power", llc[0].NetPowerW/llc[2].NetPowerW),
		quote("CDOR adds ~[0.1] % to a Table 1 DOR switch", pct(abl.CDORAreaOverhead)),
	}
}

// mean returns the arithmetic mean of xs.
func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
