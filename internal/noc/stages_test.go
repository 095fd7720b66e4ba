package noc_test

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"nocsprint/internal/noc"
	"nocsprint/internal/traffic"
)

// TestStepStagesMatchStep holds the per-stage ledger's copy of Step to
// Step itself: on every equivalence case, a network driven by StepStages
// ends with the same Stats, per-router events and probe digest as one
// driven by Step, the checker attached to both.
func TestStepStagesMatchStep(t *testing.T) {
	for _, c := range equivCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			var nets [2]*noc.Network
			var digests [2]*digestProbe
			for i := range nets {
				net, nodes, region := buildEquiv(t, c, false)
				d := &digestProbe{}
				net.SetProbe(equivChecker(net, region), d)
				step := net.Step
				if i == 1 {
					step = func() { net.StepStages(func(int) {}) }
				}
				driveEquivWith(t, net, c, nodes, step)
				nets[i], digests[i] = net, d
			}
			if s, st := nets[0].Stats(), nets[1].Stats(); !reflect.DeepEqual(s, st) {
				t.Errorf("stats drift:\nStep:       %+v\nStepStages: %+v", s, st)
			}
			for id := 0; id < nets[0].Nodes(); id++ {
				if e, es := nets[0].RouterEvents(id), nets[1].RouterEvents(id); e != es {
					t.Errorf("router %d event drift:\nStep:       %+v\nStepStages: %+v", id, e, es)
				}
			}
			if *digests[0] != *digests[1] {
				t.Errorf("probe stream drift: Step %#x over %d events, StepStages %#x over %d",
					digests[0].sum, digests[0].events, digests[1].sum, digests[1].events)
			}
		})
	}
}

// BenchmarkStepStages is the per-stage ledger of Step: ns/cycle of each
// StepStages stage (StageNames), timed between stages, on the full 4x4
// mesh at 0.15, on the 8x8 torus at 0.4 and C(64;1,8) at 0.2, the first
// saturated rung of each 64-node fabric in the topology study, and on
// Fig. 11's full-sprinting baseline on a 16x16 chip: every router powered,
// 32 scattered endpoints at 0.2. Each
// iteration builds a fresh network, warms it up for 1000 cycles under
// uniform traffic and then times 2000 cycles, so every iteration measures
// the same cycles and a saturated fabric's backlog does not grow with b.N.
// Traffic generation runs outside the timed stages; ns/op is one window
// with it, and step-ns/cycle the sum of the stages.
func BenchmarkStepStages(b *testing.B) {
	const warmup, window = 1000, 2000
	for _, c := range []equivCase{
		{name: "full-4x4", width: 4, height: 4, rate: 0.15},
		{name: "torus-8x8-sat", fabric: "torus", width: 8, height: 8, rate: 0.4},
		{name: "circulant-64-sat", fabric: "circulant", n: 64, s1: 1, s2: 8, rate: 0.2},
		{name: "full-16x16-scatter32", width: 16, height: 16, scatter: 32, rate: 0.2},
	} {
		b.Run(c.name, func(b *testing.B) {
			var spent [len(noc.StageNames)]time.Duration
			var last time.Time
			lap := func(stage int) {
				now := time.Now()
				spent[stage] += now.Sub(last)
				last = now
			}
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				net, nodes, _ := buildEquiv(b, c, false)
				net.SetProbe()
				rng := rand.New(rand.NewSource(3))
				set := traffic.NewSet(nodes)
				pattern := traffic.NewUniform(set.Size())
				pktProb := c.rate / float64(net.Config().PacketLength)
				offer := func() {
					for _, src := range nodes {
						if rng.Float64() < pktProb {
							net.Enqueue(src, set.PickNode(pattern, src, rng))
						}
					}
				}
				for k := 0; k < warmup; k++ {
					offer()
					net.Step()
				}
				b.StartTimer()
				for k := 0; k < window; k++ {
					offer()
					last = time.Now()
					net.StepStages(lap)
				}
			}
			cycles := float64(b.N * window)
			var step time.Duration
			for stage, d := range spent {
				b.ReportMetric(float64(d.Nanoseconds())/cycles, noc.StageNames[stage]+"-ns/cycle")
				step += d
			}
			b.ReportMetric(float64(step.Nanoseconds())/cycles, "step-ns/cycle")
		})
	}
}
