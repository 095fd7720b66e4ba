package workload

import (
	"math"
	"testing"

	"nocsprint/internal/sprint"
	"nocsprint/internal/topo"
)

func TestProfilesValidate(t *testing.T) {
	for _, p := range Profiles() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
	if len(Profiles()) != 12 {
		t.Errorf("expected the 12-benchmark PARSEC 2.1 suite, got %d", len(Profiles()))
	}
}

func TestValidateCatchesBadProfiles(t *testing.T) {
	base := Profiles()[0]
	muts := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.Serial = -0.1 },
		func(p *Profile) { p.Serial = 1.1 },
		func(p *Profile) { p.Parallelism = 0 },
		func(p *Profile) { p.Overhead = -1 },
		func(p *Profile) { p.Contention = -1 },
		func(p *Profile) { p.Comm = -1 },
		func(p *Profile) { p.InjRate = 1.5 },
		func(p *Profile) { p.BaseSeconds = 0 },
	}
	for i, mut := range muts {
		p := base
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("dedup")
	if err != nil || p.Name != "dedup" {
		t.Fatalf("ByName(dedup) = %v, %v", p, err)
	}
	if _, err := ByName("nonesuch"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestNormTimeSingleCoreIsUnity(t *testing.T) {
	for _, p := range Profiles() {
		if got := p.NormTime(1, 0); math.Abs(got-1) > 1e-12 {
			t.Errorf("%s: T(1) = %v, want 1", p.Name, got)
		}
	}
}

func TestNormTimePanicsBelowOneCore(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NormTime(0) did not panic")
		}
	}()
	Profiles()[0].NormTime(0, 0)
}

// TestPaperShapeCategories pins the three workload shapes of Figure 4.
func TestPaperShapeCategories(t *testing.T) {
	m := topo.NewMesh(4, 4)
	order := sprint.ActivationOrder(m, 0, sprint.Euclidean)
	opt := func(name string) int {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		lvl, _ := p.OptimalLevel(m, order)
		return lvl
	}
	// Scalable: blackscholes and bodytrack peak at full sprint (§4.2 says
	// they leave no space for power gating).
	if l := opt("blackscholes"); l != 16 {
		t.Errorf("blackscholes optimal level %d, want 16", l)
	}
	if l := opt("bodytrack"); l != 16 {
		t.Errorf("bodytrack optimal level %d, want 16", l)
	}
	// dedup's optimal level of sprinting is 4 (§4.4).
	if l := opt("dedup"); l != 4 {
		t.Errorf("dedup optimal level %d, want 4", l)
	}
	// freqmine is effectively serial: tiny optimal level.
	if l := opt("freqmine"); l > 3 {
		t.Errorf("freqmine optimal level %d, want <= 3", l)
	}
	// vips and swaptions peak in a small range then degrade.
	for _, name := range []string{"vips", "swaptions"} {
		l := opt(name)
		if l < 3 || l > 8 {
			t.Errorf("%s optimal level %d, want intermediate", name, l)
		}
	}
}

// TestFreqmineNearlyFlat checks the paper's observation that freqmine's
// execution time is almost identical across core counts.
func TestFreqmineNearlyFlat(t *testing.T) {
	m := topo.NewMesh(4, 4)
	order := sprint.ActivationOrder(m, 0, sprint.Euclidean)
	p, err := ByName("freqmine")
	if err != nil {
		t.Fatal(err)
	}
	var lo, hi float64 = math.Inf(1), math.Inf(-1)
	for n := 1; n <= 16; n++ {
		v := p.NormTime(n, AvgHops(m, order[:n]))
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi/lo > 1.35 {
		t.Errorf("freqmine varies %.2fx across core counts, want nearly flat", hi/lo)
	}
}

// TestPeakThenDegrade checks that vips-class benchmarks get slower past
// their optimum — the paper's "delay penalty after exceeding a certain
// number".
func TestPeakThenDegrade(t *testing.T) {
	m := topo.NewMesh(4, 4)
	order := sprint.ActivationOrder(m, 0, sprint.Euclidean)
	for _, name := range []string{"vips", "swaptions", "dedup", "canneal"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		lvl, tOpt := p.OptimalLevel(m, order)
		t16 := p.NormTime(16, AvgHops(m, order))
		if t16 <= tOpt {
			t.Errorf("%s: no degradation past optimum (T(%d)=%.3f, T(16)=%.3f)", name, lvl, tOpt, t16)
		}
	}
}

// TestFig7AggregateSpeedups pins the suite-level calibration: NoC-sprinting
// (per-benchmark optimal level) ~3.6x average speedup over non-sprinting,
// full-sprinting ~1.9x, and NoC-sprinting beats full-sprinting by a clear
// factor. Bands are deliberately loose — we reproduce shape, not digits.
func TestFig7AggregateSpeedups(t *testing.T) {
	m := topo.NewMesh(4, 4)
	order := sprint.ActivationOrder(m, 0, sprint.Euclidean)
	var spOpt, spFull []float64
	for _, p := range Profiles() {
		_, tOpt := p.OptimalLevel(m, order)
		tFull := p.NormTime(16, AvgHops(m, order))
		spOpt = append(spOpt, 1/tOpt)
		spFull = append(spFull, 1/tFull)
	}
	avgOpt, avgFull := mean(spOpt), mean(spFull)
	if avgOpt < 3.0 || avgOpt > 4.3 {
		t.Errorf("NoC-sprinting average speedup %.2f outside [3.0, 4.3] (paper: 3.6)", avgOpt)
	}
	if avgFull < 1.6 || avgFull > 2.6 {
		t.Errorf("full-sprinting average speedup %.2f outside [1.6, 2.6] (paper: 1.9)", avgFull)
	}
	if avgOpt/avgFull < 1.4 {
		t.Errorf("NoC-sprinting advantage %.2fx over full-sprinting too small (paper: 1.9x)", avgOpt/avgFull)
	}
	// Per-benchmark: the optimal level is never worse than full sprinting.
	for i := range spOpt {
		if spOpt[i] < spFull[i]-1e-9 {
			t.Errorf("%s: optimal level slower than full sprint", Profiles()[i].Name)
		}
	}
}

func TestAvgHops(t *testing.T) {
	m := topo.NewMesh(4, 4)
	order := sprint.ActivationOrder(m, 0, sprint.Euclidean)
	if h := AvgHops(m, order[:1]); h != 0 {
		t.Errorf("AvgHops(level 1) = %v", h)
	}
	// Level 2 = {0,1}: one pair, distance 1.
	if h := AvgHops(m, order[:2]); h != 1 {
		t.Errorf("AvgHops(level 2) = %v, want 1", h)
	}
	// Level 4 = {0,1,4,5}: pairs (0,1)=1 (0,4)=1 (0,5)=2 (1,4)=2 (1,5)=1
	// (4,5)=1 → mean 8/6.
	if h := AvgHops(m, order[:4]); math.Abs(h-8.0/6.0) > 1e-12 {
		t.Errorf("AvgHops(level 4) = %v, want %v", h, 8.0/6.0)
	}
	// Hops grow with level.
	prev := 0.0
	for lvl := 2; lvl <= 16; lvl++ {
		h := AvgHops(m, order[:lvl])
		if h < prev-0.2 {
			t.Errorf("AvgHops dropped sharply at level %d: %v -> %v", lvl, prev, h)
		}
		prev = h
	}
}

// TestEuclideanRegionsBeatHammingOnHops verifies the paper's §3.2 argument
// for Euclidean activation: averaged over levels, the Euclidean-grown
// region has no worse mean inter-node distance than the Hamming-grown one.
func TestEuclideanRegionsBeatHammingOnHops(t *testing.T) {
	m := topo.NewMesh(4, 4)
	euOrder := sprint.ActivationOrder(m, 0, sprint.Euclidean)
	haOrder := sprint.ActivationOrder(m, 0, sprint.Hamming)
	var eu, ha float64
	for lvl := 2; lvl <= 16; lvl++ {
		eu += AvgHops(m, euOrder[:lvl])
		ha += AvgHops(m, haOrder[:lvl])
	}
	if eu > ha+1e-9 {
		t.Errorf("Euclidean regions have worse average hops (%.3f) than Hamming (%.3f)", eu, ha)
	}
}

func TestInjRatesBelowPaperBound(t *testing.T) {
	// §4.3: PARSEC average injection rates never exceed 0.3 flits/cycle.
	for _, p := range Profiles() {
		if p.InjRate > 0.3 {
			t.Errorf("%s injection rate %v exceeds the paper's 0.3 bound", p.Name, p.InjRate)
		}
	}
}

func TestTimeScalesWithBase(t *testing.T) {
	p, err := ByName("dedup")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Time(1, 0); math.Abs(got-p.BaseSeconds) > 1e-12 {
		t.Errorf("Time(1) = %v, want base %v", got, p.BaseSeconds)
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
