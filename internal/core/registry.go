package core

import (
	"fmt"
	"io"

	"nocsprint/internal/power"
)

// Experiment is one entry of the experiment registry. The registry is the
// single dispatch behind every front end: the nocsprint CLI's text and -json
// modes and the nocsprintd job daemon look an experiment up here, call Run
// once, and then either JSON-encode the typed result or render it with Text.
// Every -fast shaping lives in this file, so the front ends cannot drift.
type Experiment struct {
	// Name is the experiment's command-line and job-spec name.
	Name string
	// Summary is the one-line description the CLI's usage text lists.
	Summary string
	// Text renders a result returned by Run as the CLI's text tables.
	Text func(w io.Writer, s *Sprinter, result any) error

	run func(s *Sprinter, sim NetSimParams, fast bool) (any, error)
}

// Run computes the experiment's typed, JSON-marshalable result. sim carries
// the sweep plumbing (workers, seed, cancellation, journal, checker,
// telemetry); fast runs every simulation in smoke-sized windows (300
// warm-up, 1000 measured and 10000 drain cycles), and the entry adds its
// own fast shaping.
func (e Experiment) Run(s *Sprinter, sim NetSimParams, fast bool) (any, error) {
	if fast {
		sim.Warmup, sim.Measure, sim.Drain = 300, 1000, 10000
	}
	return e.run(s, sim, fast)
}

// entry builds a registry entry from a typed driver and renderer.
func entry[R any](name, summary string,
	run func(s *Sprinter, sim NetSimParams, fast bool) (R, error),
	text func(w io.Writer, s *Sprinter, r R) error) Experiment {
	return Experiment{
		Name:    name,
		Summary: summary,
		run: func(s *Sprinter, sim NetSimParams, fast bool) (any, error) {
			r, err := run(s, sim, fast)
			if err != nil {
				return nil, err
			}
			return r, nil
		},
		Text: func(w io.Writer, s *Sprinter, result any) error {
			r, ok := result.(R)
			if !ok {
				return fmt.Errorf("core: %s: cannot render a %T result", name, result)
			}
			return text(w, s, r)
		},
	}
}

// experiments is the registry, in the order the CLI's usage lists it.
var experiments = []Experiment{
	entry("table1", "system & interconnect configuration (Table 1)",
		func(s *Sprinter, _ NetSimParams, _ bool) (Table1Result, error) { return s.Table1(), nil }, textTable1),
	entry("fig2", "router power breakdown across V/f corners",
		func(*Sprinter, NetSimParams, bool) ([]Fig2Row, error) { return Fig2RouterPower() }, textFig2),
	entry("fig3", "chip power breakdown at nominal operation",
		func(*Sprinter, NetSimParams, bool) ([]Fig3Row, error) { return Fig3ChipBreakdown() }, textFig3),
	entry("fig4", "PARSEC execution time vs core count",
		func(s *Sprinter, _ NetSimParams, _ bool) ([]Fig4Row, error) { return Fig4Scaling(s), nil }, textFig4),
	entry("fig7", "execution time per sprinting scheme",
		func(s *Sprinter, _ NetSimParams, _ bool) (Fig7Result, error) { return Fig7ExecTime(s) }, textFig7),
	entry("fig8", "core power per sprinting scheme",
		func(s *Sprinter, _ NetSimParams, _ bool) (Fig8Result, error) { return Fig8CorePower(s) }, textFig8),
	entry("fig9", "average network latency, full vs NoC-sprinting", runFig9Fig10, textFig9Fig10),
	entry("fig10", "network power, full vs NoC-sprinting", runFig9Fig10, textFig9Fig10),
	entry("fig11", "synthetic uniform-random load sweep (4- and 8-core)",
		func(s *Sprinter, sim NetSimParams, fast bool) ([]Fig11Series, error) {
			p := Fig11Params{Sim: sim}
			if fast {
				// A shorter rate ladder with fewer full-sprinting mappings.
				p.Rates = []float64{0.05, 0.15, 0.25, 0.35}
				p.Samples = 3
			}
			return Fig11Sweep(s, []int{4, 8}, p)
		}, textFig11),
	entry("fig12", "steady-state heat maps (dedup, level 4)",
		func(s *Sprinter, _ NetSimParams, _ bool) ([]Fig12Case, error) { return Fig12HeatMaps(s) }, textFig12),
	entry("duration", "sprint duration analysis (Section 4.4)",
		func(s *Sprinter, _ NetSimParams, _ bool) (DurationResult, error) { return SprintDurations(s) }, textDuration),
	entry("ablations", "design ablations: activation metric, power gating, CDOR vs DOR",
		func(s *Sprinter, sim NetSimParams, _ bool) (AblationResult, error) { return Ablations(s, sim) }, textAblations),
	entry("gating", "extension: runtime power-gating baseline vs NoC-sprinting",
		func(s *Sprinter, sim NetSimParams, _ bool) (GatingResult, error) { return GatingComparison(s, sim) }, textGating),
	entry("feedback", "extension: leakage-temperature feedback & sustainable levels",
		func(s *Sprinter, _ NetSimParams, _ bool) (FeedbackResult, error) {
			return LeakageFeedbackAnalysis(s, power.DefaultLeakageFeedback())
		}, textFeedback),
	entry("controller", "extension: online burst controller with thermal coupling",
		func(s *Sprinter, _ NetSimParams, _ bool) ([]ControllerRow, error) { return ControllerStudy(s) }, textController),
	entry("wires", "extension: floorplan wire cost & SMART repeated wires (Sec 3.3)",
		func(s *Sprinter, sim NetSimParams, _ bool) ([]WireCase, error) { return FloorplanWireStudy(s, sim) }, textWires),
	entry("scale", "extension: 4x4 / 6x6 / 8x8 mesh scaling study",
		func(_ *Sprinter, sim NetSimParams, fast bool) ([]ScaleRow, error) {
			widths := []int{4, 6, 8}
			if fast {
				widths = []int{4, 6}
			}
			return ScalingStudy(widths, sim)
		}, textScale),
	entry("sensitivity", "extension: VC count & buffer depth sweep",
		func(_ *Sprinter, sim NetSimParams, _ bool) ([]SensitivityRow, error) { return SensitivitySweep(sim) }, textSensitivity),
	entry("topology", "extension: mesh vs torus vs ring-circulant comparison",
		func(s *Sprinter, sim NetSimParams, fast bool) ([]TopoRow, error) {
			p := TopologyParams{Sim: sim}
			if fast {
				p.Rates = []float64{0.1, 0.3, 0.5, 0.7}
			}
			return s.TopologyStudy(p)
		}, textTopology),
	entry("dimdark", "extension: dim silicon (more slow cores) vs dark (few fast)",
		func(s *Sprinter, _ NetSimParams, _ bool) ([]DimDarkPoint, error) { return DimVsDark(s) }, textDimDark),
	entry("llc", "extension: Sec 3.4 LLC policies — bypass paths vs home remap",
		func(s *Sprinter, sim NetSimParams, _ bool) ([]LLCRow, error) {
			// The point-level abort context (not the sweep context) reaches
			// the cache-system cycle loop: the study is one point, so only an
			// abort should stop it mid-run.
			return LLCStudy(s, sim)
		}, textLLC),
	entry("faults", "extension: fault injection & online sprint-region repair",
		func(s *Sprinter, sim NetSimParams, fast bool) ([]FaultPoint, error) {
			p := FaultParams{Sim: sim}
			if fast {
				p.Cycles = 8000
				p.Rates = []float64{2, 8}
			}
			return FaultSweep(s, p)
		}, textFaults),
}

func runFig9Fig10(s *Sprinter, sim NetSimParams, _ bool) (NetResult, error) {
	return Fig9Fig10Network(s, sim)
}

// Experiments returns the registry in presentation order.
func Experiments() []Experiment {
	return append([]Experiment(nil), experiments...)
}

// LookupExperiment returns the registry entry with the given name.
func LookupExperiment(name string) (Experiment, bool) {
	for _, e := range experiments {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Table1Result is the system and interconnect configuration of the paper's
// Table 1, as the default Sprinter is built.
type Table1Result struct {
	Cores        int
	FreqGHz      float64
	MeshWidth    int
	MeshHeight   int
	Pipeline     string
	VCs          int
	BufferDepth  int
	PacketLength int
	FlitBytes    int
	Master       int
}

// Table1 reports the sprinter's Table 1 configuration.
func (s *Sprinter) Table1() Table1Result {
	cfg := s.cfg
	return Table1Result{
		Cores:        cfg.NoC.Nodes(),
		FreqGHz:      cfg.Corner.FreqHz / 1e9,
		MeshWidth:    cfg.NoC.Width,
		MeshHeight:   cfg.NoC.Height,
		Pipeline:     "classic five-stage",
		VCs:          cfg.NoC.VCs,
		BufferDepth:  cfg.NoC.BufferDepth,
		PacketLength: cfg.NoC.PacketLength,
		FlitBytes:    cfg.NoC.FlitBits / 8,
		Master:       cfg.Master,
	}
}
