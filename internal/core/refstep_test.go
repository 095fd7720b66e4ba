package core

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"nocsprint/internal/ckpt"
)

// Driver-level zero-drift proofs for the reference-stepper switch: the
// active-work scheduler and the full-scan pipeline must produce deep-equal
// sweep results at any worker count, with the invariant checker on, and a
// checkpoint written under one stepper must resume under the other.

// TestFig11SweepReferenceStepperEquivalence runs the fig11 sweep on both
// steppers (parallel workers, checker attached on the reference side) and
// requires byte-equal results.
func TestFig11SweepReferenceStepperEquivalence(t *testing.T) {
	s := newSprinter(t)
	run := func(reference bool, workers int, check bool) []Fig11Series {
		t.Helper()
		p := fig11TestParams(workers)
		p.Sim.Reference = reference
		p.Sim.Check = check
		series, err := Fig11Sweep(s, []int{4, 8}, p)
		if err != nil {
			t.Fatal(err)
		}
		return series
	}
	optimized := run(false, 4, false)
	reference := run(true, 1, true)
	if !reflect.DeepEqual(optimized, reference) {
		t.Errorf("stepper drift at the sweep level:\noptimized: %+v\nreference: %+v", optimized, reference)
	}
}

// TestReferenceStepperCrossModeResume proves Reference is rightly excluded
// from checkpoint keys: a journal written by a reference-stepper sweep is
// consumed by an optimized resume (half the points decoded, half recomputed
// on the new stepper), and the merged output matches a clean optimized run.
func TestReferenceStepperCrossModeResume(t *testing.T) {
	s := newSprinter(t)
	levels := []int{4, 8}

	clean, err := Fig11Sweep(s, levels, fig11TestParams(1))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	full, err := ckpt.Create(filepath.Join(dir, "ref.journal"))
	if err != nil {
		t.Fatal(err)
	}
	pRef := fig11TestParams(1)
	pRef.Sim.Reference = true
	pRef.Sim.Journal = full
	if _, err := Fig11Sweep(s, levels, pRef); err != nil {
		t.Fatal(err)
	}
	if err := full.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full.Path())
	if err != nil {
		t.Fatal(err)
	}
	recs, err := ckpt.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("reference sweep journaled nothing")
	}

	half, err := ckpt.Create(filepath.Join(dir, "half.journal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[:len(recs)/2] {
		if err := half.Append(r.Key, r.Result); err != nil {
			t.Fatal(err)
		}
	}
	pOpt := fig11TestParams(2)
	pOpt.Sim.Journal = half // Reference stays false: resume on the optimized stepper
	resumed, err := Fig11Sweep(s, levels, pOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clean, resumed) {
		t.Errorf("cross-stepper resume drifted from clean optimized run:\nclean:   %+v\nresumed: %+v", clean, resumed)
	}
	if half.Len() != len(recs) {
		t.Errorf("resumed journal holds %d records, want %d", half.Len(), len(recs))
	}
}
