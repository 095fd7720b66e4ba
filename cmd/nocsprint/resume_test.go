package main

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"nocsprint/internal/ckpt"
	"nocsprint/internal/core"
)

// TestGoldenFig11FastResume is the end-to-end acceptance test for
// checkpoint/resume: the `fig11 -fast` sweep is interrupted mid-flight (the
// sweep context is cancelled once the journal holds half the points), the
// journal is closed and reopened through the crash-recovery path, and the
// resumed sweep — with the invariant checker on — must reproduce the
// pinned golden byte-for-byte.
func TestGoldenFig11FastResume(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep is too slow for -short")
	}
	e, _ := core.LookupExperiment("fig11")
	const totalPoints = 8 // 2 levels x 4 rates

	path := filepath.Join(t.TempDir(), "fig11.journal")
	j, err := ckpt.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	interrupted := core.NetSimParams{
		Check: true, Ctx: ctx, Journal: j,
		Workers: 2, // bounds in-flight points, so the interrupt lands mid-sweep
		// Progress reports a point after journaling it and before its
		// worker claims the next, so the interrupt lands mid-sweep however
		// fast the points run.
		Progress: func(done, _ int) {
			if done >= totalPoints/2 {
				cancel()
			}
		},
	}
	if _, err := e.Run(interrupted, true); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep: err = %v, want context.Canceled", err)
	}
	if n := j.Len(); n < totalPoints/2 || n >= totalPoints {
		t.Fatalf("interrupted journal holds %d points, want a strict partial >= %d", n, totalPoints/2)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	resumedJournal, err := ckpt.Open(path)
	if err != nil {
		t.Fatalf("reopening the interrupted journal: %v", err)
	}
	defer resumedJournal.Close()
	series, err := e.Run(core.NetSimParams{Check: true, Journal: resumedJournal}, true)
	if err != nil {
		t.Fatal(err)
	}
	compareRegistryGolden(t, "fig11", series)
	if resumedJournal.Len() != totalPoints {
		t.Errorf("resumed journal holds %d points, want %d", resumedJournal.Len(), totalPoints)
	}
}
