package noc_test

import (
	"math/rand"
	"testing"

	"nocsprint/internal/noc"
	"nocsprint/internal/routing"
	"nocsprint/internal/sprint"
	"nocsprint/internal/topo"
	"nocsprint/internal/traffic"
)

// BenchmarkAudit times one Audit, the invariant checker's periodic
// structural audit and flit census, on CDOR networks loaded to steady state
// by uniform traffic at 0.2 flits/node/cycle: a 4x4 chip sprinting at level
// 8, a 16x16 chip at level 16, and a fully powered 16x16 chip. The network
// does not step inside the timed loop, so after the first audit empties the
// dirty set every iteration audits the same state: the busy routers in
// full, every other router by word-compare. The census buffer is reused as
// the checker reuses it.
func BenchmarkAudit(b *testing.B) {
	for _, c := range []struct {
		name                 string
		width, height, level int
	}{
		{"4x4-level8", 4, 4, 8},
		{"16x16-level16", 16, 16, 16},
		{"16x16-full", 16, 16, 256},
	} {
		b.Run(c.name, func(b *testing.B) {
			net := loadedCDOR(b, c.width, c.height, c.level, 0.2)
			census, err := net.Audit(nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if census, err = net.Audit(census); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// loadedCDOR builds a width x height CDOR network sprinting at level and
// drives it with uniform traffic at rate flits/node/cycle for 2000 cycles.
func loadedCDOR(b *testing.B, width, height, level int, rate float64) *noc.Network {
	b.Helper()
	cfg := noc.DefaultConfig()
	cfg.Width, cfg.Height = width, height
	region := sprint.NewRegion(topo.NewMesh(width, height), 0, level, sprint.Euclidean)
	net, err := noc.New(cfg, routing.NewCDOR(region), region.ActiveNodes())
	if err != nil {
		b.Fatal(err)
	}
	nodes := region.ActiveNodes()
	set := traffic.NewSet(nodes)
	pattern := traffic.NewUniform(set.Size())
	pktProb := rate / float64(cfg.PacketLength)
	rng := rand.New(rand.NewSource(5))
	for cyc := 0; cyc < 2000; cyc++ {
		for _, src := range nodes {
			if rng.Float64() < pktProb {
				net.Enqueue(src, set.PickNode(pattern, src, rng))
			}
		}
		net.Step()
	}
	if net.InFlight() == 0 {
		b.Fatal("network idle after warm-up")
	}
	return net
}
