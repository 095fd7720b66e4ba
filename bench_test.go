// Package nocsprint_test times the experiment registry, one sub-benchmark
// per entry, and the hot paths under it. The numbers EXPERIMENTS.md quotes
// come from the registry and are pinned by experiments_doc_test.go, not by
// these benchmarks.
//
// Run with:
//
//	go test -run '^$' -bench . -benchmem .
//	go test -run '^$' -bench 'Experiment/fig11$' -cpu 1,2 .   # serial vs parallel sweep
package nocsprint_test

import (
	"math/rand"
	"testing"

	"nocsprint/internal/cache"
	"nocsprint/internal/core"
	"nocsprint/internal/mesh"
	"nocsprint/internal/noc"
	"nocsprint/internal/routing"
	"nocsprint/internal/serve"
	"nocsprint/internal/sprint"
	"nocsprint/internal/thermal"
	"nocsprint/internal/topo"
	"nocsprint/internal/traffic"
)

// BenchmarkExperiment runs every registry entry under -fast, each iteration
// as one nocsprintd job: build the default Sprinter, then run the entry.
// Workers 0 resolves to GOMAXPROCS, so -cpu sets the sweep fan-out.
func BenchmarkExperiment(b *testing.B) {
	for _, e := range core.Experiments() {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := serve.RunExperiment(serve.JobSpec{Experiment: e.Name, Fast: true}, core.NetSimParams{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNoCStep measures simulator cycle throughput on a loaded 4x4 mesh.
func BenchmarkNoCStep(b *testing.B) {
	cfg := noc.DefaultConfig()
	m := mesh.New(4, 4)
	net, err := noc.New(cfg, routing.NewDOR(m), nil)
	if err != nil {
		b.Fatal(err)
	}
	set := traffic.NewSet(topo.AllNodes(16))
	pattern := traffic.NewUniform(16)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%5 == 0 {
			src := rng.Intn(16)
			net.Enqueue(src, set.PickNode(pattern, src, rng))
		}
		net.Step()
	}
}

// BenchmarkActivationOrder measures Algorithm 1 on an 8x8 mesh.
func BenchmarkActivationOrder(b *testing.B) {
	m := mesh.New(8, 8)
	for i := 0; i < b.N; i++ {
		if got := sprint.ActivationOrder(m, 0, sprint.Euclidean); len(got) != 64 {
			b.Fatal("bad order")
		}
	}
}

// BenchmarkSteadyState measures the HotSpot-style solver at default
// resolution.
func BenchmarkSteadyState(b *testing.B) {
	cfg := thermal.DefaultGridConfig()
	tiles := make([]float64, 16)
	for i := range tiles {
		tiles[i] = 6.45
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := thermal.SteadyState(cfg, tiles); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCDORNextPort measures the routing decision itself.
func BenchmarkCDORNextPort(b *testing.B) {
	m := mesh.New(4, 4)
	region := sprint.NewRegion(m, 0, 8, sprint.Euclidean)
	alg := routing.NewCDOR(region)
	nodesIn := region.ActiveNodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := nodesIn[i%len(nodesIn)]
		dst := nodesIn[(i*7+3)%len(nodesIn)]
		if _, err := alg.NextPort(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheArray measures the tag-array hot path.
func BenchmarkCacheArray(b *testing.B) {
	a := cache.NewArray(256, 4)
	for i := uint64(0); i < 1024; i++ {
		a.Install(i, i%3 == 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(i*2654435761) % 2048
		if !a.Access(addr, false) {
			a.Install(addr, false)
		}
	}
}
