package noc_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"nocsprint/internal/noc"
)

// TestProbeStreamPinned pins the whole probe event stream, in order, plus the
// final Stats on three runs where flits wait in flight: a runtime-gated mesh
// near saturation (arrivals wait out wake-ups), a mesh whose links take 1–3
// cycles, and the C(16;1,4) circulant near saturation. Both steppers share
// the in-flight queues, so the equivalence suite cannot see a change in
// delivery order; these digests can. They must never change.
func TestProbeStreamPinned(t *testing.T) {
	for _, pin := range []struct {
		c         equivCase
		slowLinks bool
		want      uint64
	}{
		{equivCase{name: "gating-4x4", width: 4, height: 4, gating: true, cycles: 2500, rate: 0.45}, false, 0x7fc93c723aa9d8d2},
		{equivCase{name: "links-1to3-4x4", width: 4, height: 4, cycles: 2500, rate: 0.3}, true, 0x92e16ff3f019a2b8},
		{equivCase{name: "circulant-16", fabric: "circulant", n: 16, s1: 1, s2: 4, cycles: 2500, rate: 0.45}, false, 0xc560f8836390c30e},
	} {
		pin := pin
		t.Run(pin.c.name, func(t *testing.T) {
			t.Parallel()
			for _, reference := range []bool{false, true} {
				net, nodes, _ := buildEquiv(t, pin.c, reference)
				if pin.c.gating {
					// Gate after 4 idle cycles, so routers on lightly used
					// paths keep waking up under the heavy load.
					g := noc.DefaultGatingConfig()
					g.IdleThreshold = 4
					if err := net.EnableRuntimeGating(g); err != nil {
						t.Fatal(err)
					}
				}
				if pin.slowLinks {
					rng := rand.New(rand.NewSource(5))
					tp := net.Topo()
					for a := 0; a < net.Nodes(); a++ {
						for p := 1; p < tp.Ports(); p++ {
							if b := tp.Neighbor(a, p); b >= 0 {
								if err := net.SetLinkLatency(a, b, 1+rng.Intn(3)); err != nil {
									t.Fatal(err)
								}
							}
						}
					}
				}
				d := &digestProbe{}
				net.SetProbe(d)
				driveEquiv(t, net, pin.c, nodes)
				if w := net.GatingStats().Wakeups; pin.c.gating && w < 50 {
					t.Fatalf("only %d wake-ups: too few arrivals waited", w)
				}
				h := fnv.New64a()
				fmt.Fprintf(h, "%x %d %+v", d.sum, d.events, net.Stats())
				if got := h.Sum64(); got != pin.want {
					t.Errorf("reference=%t: probe stream digest %#x over %d events, want %#x",
						reference, got, d.events, pin.want)
				}
			}
		})
	}
}
