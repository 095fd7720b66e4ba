// Zero-drift and zero-alloc guarantees for the telemetry layer: attaching an
// obs.Collector to a network must change nothing about the simulation — the
// same reflect.DeepEqual discipline the stepper-equivalence suite applies —
// and a steady-state Step with a collector attached must still allocate
// nothing. The suite lives in package noc_test so it exercises only the
// public Probe API, exactly like the real drivers.
package noc_test

import (
	"math/rand"
	"reflect"
	"testing"

	"nocsprint/internal/noc"
	"nocsprint/internal/obs"
	"nocsprint/internal/power"
	"nocsprint/internal/traffic"
)

// newTestRecorder builds a recorder with the power model attached, so the
// sampled series exercises the alloc-free NetworkPowerTotal path.
func newTestRecorder(t *testing.T, cfg noc.Config, interval int) *obs.Recorder {
	t.Helper()
	rec, err := obs.NewRecorder(obs.Config{
		Interval: interval,
		Power:    &obs.PowerModel{Params: power.DefaultRouterParams45nm(cfg), Corner: power.Nominal},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// compareNets asserts bit-identical observables between two runs.
func compareNets(t *testing.T, a, b *noc.Network, aPkts, bPkts []*noc.Packet) {
	t.Helper()
	if as, bs := a.Stats(), b.Stats(); !reflect.DeepEqual(as, bs) {
		t.Errorf("stats drift:\nplain:    %+v\nobserved: %+v", as, bs)
	}
	if a.Cycle() != b.Cycle() {
		t.Errorf("cycle drift: plain %d, observed %d", a.Cycle(), b.Cycle())
	}
	for id := 0; id < a.Mesh().Nodes(); id++ {
		if ae, be := a.RouterEvents(id), b.RouterEvents(id); !reflect.DeepEqual(ae, be) {
			t.Errorf("router %d event drift:\nplain:    %+v\nobserved: %+v", id, ae, be)
		}
	}
	if len(aPkts) != len(bPkts) {
		t.Fatalf("packet count drift: plain %d, observed %d", len(aPkts), len(bPkts))
	}
	for i := range aPkts {
		p, q := aPkts[i], bPkts[i]
		if p.ID != q.ID || p.Src != q.Src || p.Dst != q.Dst ||
			p.CreatedAt != q.CreatedAt || p.InjectedAt != q.InjectedAt || p.EjectedAt != q.EjectedAt {
			t.Errorf("packet %d timestamp drift:\nplain:    %+v\nobserved: %+v", i, *p, *q)
		}
	}
	if an, bn := a.Snapshot(), b.Snapshot(); an != bn {
		t.Errorf("state snapshot drift:\nplain:\n%s\nobserved:\n%s", an, bn)
	}
}

// TestObserverZeroDrift runs every equivalence configuration twice — bare and
// with a collector attached — and requires bit-identical results, then
// cross-checks the collector's own series against the network's statistics
// (flit conservation per telemetry window).
func TestObserverZeroDrift(t *testing.T) {
	for _, c := range equivCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			plain, plainNodes, _ := buildEquiv(t, c, false)
			observed, obsNodes, obsRegion := buildEquiv(t, c, false)
			rec := newTestRecorder(t, observed.Config(), 250)
			col := rec.NewCollector(observed, c.name)
			observed.SetProbe(equivChecker(observed, obsRegion), col)

			plainPkts := driveEquiv(t, plain, c, plainNodes)
			obsPkts := driveEquiv(t, observed, c, obsNodes)
			compareNets(t, plain, observed, plainPkts, obsPkts)

			col.Finish()
			samples := col.Samples()
			if len(samples) == 0 {
				t.Fatal("collector recorded no samples")
			}
			var inj, ej, drop int64
			prev := int64(0)
			for i, s := range samples {
				if s.Cycle <= prev && i > 0 {
					t.Errorf("sample %d: cycle %d not increasing (prev %d)", i, s.Cycle, prev)
				}
				prev = s.Cycle
				inj += s.InjectedFlits
				ej += s.EjectedFlits
				drop += s.DroppedFlits
			}
			st := observed.Stats()
			if inj != st.FlitsInjected {
				t.Errorf("telemetry injected flits %d != network %d", inj, st.FlitsInjected)
			}
			if ej != st.FlitsEjected {
				t.Errorf("telemetry ejected flits %d != network %d", ej, st.FlitsEjected)
			}
			if drop != st.FlitsDropped {
				t.Errorf("telemetry dropped flits %d != network %d", drop, st.FlitsDropped)
			}
		})
	}
}

// TestObserverToggleMidRun attaches and detaches a collector mid-run: the
// run must stay bit-identical to an unobserved one, and the late collector's
// partial series must account exactly for the cycles it observed.
func TestObserverToggleMidRun(t *testing.T) {
	c := equivCases[1] // region-4x4-level4
	plain, plainNodes, _ := buildEquiv(t, c, false)
	toggled, togNodes, togRegion := buildEquiv(t, c, false)
	rec := newTestRecorder(t, toggled.Config(), 100)

	set := traffic.NewSet(togNodes)
	pattern := traffic.NewUniform(set.Size())
	pktProb := c.rate / float64(toggled.Config().PacketLength)
	const seed = 97
	var col *obs.Collector
	for _, run := range []struct {
		net    *noc.Network
		nodes  []int
		toggle bool
	}{{plain, plainNodes, false}, {toggled, togNodes, true}} {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < c.cycles; i++ {
			if run.toggle {
				switch i {
				case c.cycles / 4:
					col = rec.NewCollector(run.net, "mid-run")
					run.net.SetProbe(equivChecker(run.net, togRegion), col)
				case 3 * c.cycles / 4:
					run.net.SetProbe(equivChecker(run.net, togRegion))
				}
			}
			for _, src := range run.nodes {
				if rng.Float64() < pktProb {
					run.net.Enqueue(src, set.PickNode(pattern, src, rng))
				}
			}
			run.net.Step()
		}
		if err := run.net.DrainWithBudget(50000); err != nil {
			t.Fatal(err)
		}
	}
	compareNets(t, plain, toggled, nil, nil)

	col.Finish()
	var observed int64
	for _, s := range col.Samples() {
		observed += s.Window
	}
	// The collector saw exactly the cycles between attach and detach.
	if want := int64(3*c.cycles/4 - c.cycles/4); observed != want {
		t.Errorf("mid-run collector observed %d cycles, want %d", observed, want)
	}
}

// digestProbe folds every event it observes into a running FNV-1a hash and
// an event count, so two runs can be compared event for event without the
// probe allocating.
type digestProbe struct {
	sum    uint64
	events int64
}

func (d *digestProbe) event(kind, a, b, c, e int64) {
	d.events++
	for _, v := range [...]int64{kind, a, b, c, e} {
		d.sum = (d.sum ^ uint64(v)) * 1099511628211
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (d *digestProbe) FlitArrived(n *noc.Network, router, from int, pkt *noc.Packet, typ noc.FlitType, vc int) {
	d.event(1, int64(router), int64(from), pkt.ID, int64(typ)<<8|int64(vc))
}

func (d *digestProbe) FlitInjected(n *noc.Network, node int, pkt *noc.Packet, seq int) {
	d.event(2, int64(node), pkt.ID, int64(seq), 0)
}

func (d *digestProbe) FlitEjected(n *noc.Network, node int, pkt *noc.Packet, tail, dropped bool) {
	d.event(3, int64(node), pkt.ID, b2i(tail), b2i(dropped))
}

func (d *digestProbe) CreditDelivered(n *noc.Network, router, port, vc, credits int) {
	d.event(4, int64(router), int64(port), int64(vc), int64(credits))
}

func (d *digestProbe) CycleEnd(n *noc.Network, cycle int64) { d.event(5, cycle, 0, 0, 0) }

// TestStepZeroAllocSteadyStateWithObs is the TestStepZeroAllocSteadyState
// variant the probe layer must keep honest. Each case runs three times on
// identical traffic: unprobed, with a digest probe alone, and with the digest
// probe beside a collector (power model included, sampling every 100 cycles)
// through the SetProbe fan-out. Steady-state Step must allocate nothing in
// every run — samples append into preallocated flat buffers, the power total
// uses the alloc-free NetworkPowerTotal, and the fan-out is a plain loop —
// all three runs must end in identical Stats, and both digest probes must
// see the identical event sequence.
func TestStepZeroAllocSteadyStateWithObs(t *testing.T) {
	for _, c := range []equivCase{
		{name: "dark-8x8", width: 8, height: 8, level: 4, rate: 0.15},
		{name: "full-4x4", width: 4, height: 4, rate: 0.2},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			modes := []string{"unprobed", "probe", "probe+collector"}
			stats := make([]noc.Stats, len(modes))
			digests := make([]digestProbe, len(modes))
			for i, mode := range modes {
				net, nodes, _ := buildEquiv(t, c, false)
				d := &digests[i]
				switch mode {
				case "unprobed":
					net.SetProbe() // the checker's periodic sweeps allocate
				case "probe":
					net.SetProbe(d)
				case "probe+collector":
					rec := newTestRecorder(t, net.Config(), 100)
					net.SetProbe(d, rec.NewCollector(net, c.name))
				}
				rng := rand.New(rand.NewSource(3))
				set := traffic.NewSet(nodes)
				pattern := traffic.NewUniform(set.Size())
				pktProb := c.rate / float64(net.Config().PacketLength)
				for cyc := 0; cyc < 2000; cyc++ { // grow event buffers to steady state
					for _, src := range nodes {
						if rng.Float64() < pktProb {
							net.Enqueue(src, set.PickNode(pattern, src, rng))
						}
					}
					net.Step()
				}
				allocs := testing.AllocsPerRun(200, func() { net.Step() })
				if allocs != 0 {
					t.Errorf("%s: steady-state Step allocates %.1f objects/cycle, want 0", mode, allocs)
				}
				stats[i] = net.Stats()
			}
			for i := 1; i < len(modes); i++ {
				if !reflect.DeepEqual(stats[0], stats[i]) {
					t.Errorf("%s run drifted from the unprobed one:\nunprobed: %+v\n%s: %+v", modes[i], stats[0], modes[i], stats[i])
				}
			}
			if digests[1].events == 0 || digests[1] != digests[2] {
				t.Errorf("probe saw %+v alone but %+v beside a collector", digests[1], digests[2])
			}
		})
	}
}
