package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"nocsprint/internal/ckpt"
)

func fig11TestParams(workers int) Fig11Params {
	return Fig11Params{
		Rates:   []float64{0.05, 0.25},
		Samples: 2,
		Sim:     raceSim(workers),
	}
}

// TestFig11SweepResumeMatchesCleanRun is the resume-equivalence property at
// the driver level: a sweep interrupted midway (modelled by a journal holding
// only the first half of the records) and resumed — at a different worker
// count — produces output deep-equal to an uninterrupted run, and ends with
// the journal fully populated.
func TestFig11SweepResumeMatchesCleanRun(t *testing.T) {
	s := newSprinter(t)
	levels := []int{4, 8}

	clean, err := Fig11Sweep(s, levels, fig11TestParams(1))
	if err != nil {
		t.Fatal(err)
	}

	// Full journaled run to harvest every record the sweep writes.
	dir := t.TempDir()
	full, err := ckpt.Create(filepath.Join(dir, "full.journal"))
	if err != nil {
		t.Fatal(err)
	}
	pFull := fig11TestParams(1)
	pFull.Sim.Journal = full
	if _, err := Fig11Sweep(s, levels, pFull); err != nil {
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
	if len(recs) != len(levels)*2 {
		t.Fatalf("journal holds %d records, want %d (one per point)", len(recs), len(levels)*2)
	}

	// An interrupted sweep leaves a journal with a prefix of the records.
	half, err := ckpt.Create(filepath.Join(dir, "half.journal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[:len(recs)/2] {
		if err := half.Append(r.Key, r.Result); err != nil {
			t.Fatal(err)
		}
	}
	pHalf := fig11TestParams(4) // resume at a different worker count
	pHalf.Sim.Journal = half
	pHalf.Sim.Check = true
	resumed, err := Fig11Sweep(s, levels, pHalf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clean, resumed) {
		t.Errorf("resumed sweep differs from clean run:\nclean:   %+v\nresumed: %+v", clean, resumed)
	}
	if half.Len() != len(recs) {
		t.Errorf("resumed journal holds %d records, want %d", half.Len(), len(recs))
	}
}

// TestFig11SweepCancelledBeforeStart pins the error contract: a cancelled
// sweep context stops the sweep with context.Canceled and journals nothing,
// and the untouched journal then resumes cleanly.
func TestFig11SweepCancelledBeforeStart(t *testing.T) {
	s := newSprinter(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	j, err := ckpt.Create(filepath.Join(t.TempDir(), "sweep.journal"))
	if err != nil {
		t.Fatal(err)
	}
	p := fig11TestParams(2)
	p.Sim.Ctx = ctx
	p.Sim.Journal = j
	if _, err := Fig11Sweep(s, []int{4}, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if j.Len() != 0 {
		t.Fatalf("cancelled-before-start sweep journaled %d points", j.Len())
	}

	p.Sim.Ctx = nil
	out, err := Fig11Sweep(s, []int{4}, p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Fig11Sweep(s, []int{4}, fig11TestParams(2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, want) {
		t.Error("post-cancel resume differs from clean run")
	}
}

// TestPointKeyContract checks the canonicalisation rules the resume
// guarantee rests on: keys are stable, distinct per point, sensitive to the
// result-determining parameters (seed, windows), and insensitive to the
// proven-observational ones (Workers, Check).
func TestPointKeyContract(t *testing.T) {
	sim := NetSimParams{Warmup: 300, Measure: 1000, Drain: 10000, Seed: 1}
	type pt struct{ Level, RateIdx int }

	k1, err := pointKey("fig11", DefaultConfig(), pt{4, 0}, sim)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := pointKey("fig11", DefaultConfig(), pt{4, 0}, sim)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("identical points produced different keys")
	}

	other, _ := pointKey("fig11", DefaultConfig(), pt{8, 0}, sim)
	if other == k1 {
		t.Error("distinct points share a key")
	}
	otherDriver, _ := pointKey("scaling", DefaultConfig(), pt{4, 0}, sim)
	if otherDriver == k1 {
		t.Error("distinct drivers share a key")
	}

	seeded := sim
	seeded.Seed = 2
	reseeded, _ := pointKey("fig11", DefaultConfig(), pt{4, 0}, seeded)
	if reseeded == k1 {
		t.Error("key ignores the base seed")
	}

	tuned := sim
	tuned.Workers = 8
	tuned.Check = true
	retuned, _ := pointKey("fig11", DefaultConfig(), pt{4, 0}, tuned)
	if retuned != k1 {
		t.Error("key depends on Workers/Check, so checkpoints cannot move between settings")
	}

	full, _ := pointKey("fig11", DefaultConfig(), pt{4, 0},
		NetSimParams{Warmup: 1500, Measure: 4000, Drain: 40000, Seed: 1})
	if full == k1 {
		t.Error("key ignores the simulation windows")
	}
}
