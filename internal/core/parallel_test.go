package core

import (
	"reflect"
	"sync"
	"testing"
)

// raceSim keeps the concurrency tests short; the Workers field is set per
// test.
func raceSim(workers int) NetSimParams {
	return NetSimParams{Warmup: 300, Measure: 1000, Drain: 10000, Workers: workers}
}

// TestFig11SweepDeterministicAcrossWorkers asserts the runner's core
// guarantee end-to-end: the fig11 sweep produces identical results at
// workers=1 (legacy serial) and workers=8, because every point carries its
// own seed and constructs its own simulation state.
func TestFig11SweepDeterministicAcrossWorkers(t *testing.T) {
	s := newSprinter(t)
	run := func(workers int) []Fig11Series {
		t.Helper()
		series, err := Fig11Sweep(s, []int{4, 8}, Fig11Params{
			Rates:   []float64{0.05, 0.20, 0.35},
			Samples: 3,
			Sim:     raceSim(workers),
		})
		if err != nil {
			t.Fatal(err)
		}
		return series
	}
	serial := run(1)
	parallel := run(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("fig11 sweep differs between workers=1 and workers=8:\nserial:   %+v\nparallel: %+v",
			serial, parallel)
	}
}

// TestSweepsDeterministicAcrossWorkers covers the remaining parallelised
// drivers at workers=1 vs workers=4.
func TestSweepsDeterministicAcrossWorkers(t *testing.T) {
	s := newSprinter(t)

	f1, err := Fig9Fig10Network(s, raceSim(1))
	if err != nil {
		t.Fatal(err)
	}
	f4, err := Fig9Fig10Network(s, raceSim(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f1, f4) {
		t.Error("Fig9Fig10Network differs across worker counts")
	}

	sc1, err := ScalingStudy([]int{4, 6}, raceSim(1))
	if err != nil {
		t.Fatal(err)
	}
	sc4, err := ScalingStudy([]int{4, 6}, raceSim(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc1, sc4) {
		t.Error("ScalingStudy differs across worker counts")
	}
}

func TestSensitivitySweepDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("sensitivity sweep is slow")
	}
	s1, err := SensitivitySweep(raceSim(1))
	if err != nil {
		t.Fatal(err)
	}
	s4, err := SensitivitySweep(raceSim(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1, s4) {
		t.Error("SensitivitySweep differs across worker counts")
	}
}

// TestConcurrentFig11Sweeps runs two parallel fig11 sweeps on separate
// Sprinters at the same time — the race-targeted test: under `go test
// -race` it flags any hidden shared mutable state in the noc, traffic,
// routing, or power construction paths.
func TestConcurrentFig11Sweeps(t *testing.T) {
	params := Fig11Params{
		Rates:   []float64{0.05, 0.25},
		Samples: 2,
		Sim:     raceSim(4),
	}
	var wg sync.WaitGroup
	results := make([][]Fig11Series, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := New(DefaultConfig())
			if err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = Fig11Sweep(s, []int{4, 8}, params)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("sweep %d: %v", i, err)
		}
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Error("identically-seeded concurrent sweeps disagree")
	}
}
