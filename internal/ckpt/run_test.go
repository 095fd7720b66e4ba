package ckpt_test

// The journal's resume contract — journaled points are skipped, fresh ones
// recorded, failed ones not — is applied by the sweep executor, so these
// tests drive it through runner.Run.

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"nocsprint/internal/ckpt"
	"nocsprint/internal/runner"
)

type testResult struct {
	N int
	F float64
	S string
}

// TestKeyRejectsUnexportedOnlyStructs guards the classic Go mistake this
// package's callers must avoid: a point struct with only unexported fields
// marshals as {}, so every point would share one key. Key can't see the
// struct definition, but the duplicate-key checks in runner.Run and
// Journal.Append catch it; this test documents the failure shape.
func TestKeyRejectsUnexportedOnlyStructs(t *testing.T) {
	type bad struct{ level, ri int }
	k1, err := ckpt.Key(bad{4, 0})
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := ckpt.Key(bad{8, 3})
	if k1 != k2 {
		t.Fatal("expected unexported-field structs to collide (this test documents the hazard)")
	}
	// And the executor refuses such colliding keys up front.
	_, err = runner.Run(context.Background(), nil, []string{k1, k2}, 1, nil, func(int) (int, error) {
		return 0, nil
	})
	if err == nil || !strings.Contains(err.Error(), "share key") {
		t.Errorf("Run accepted duplicate keys: %v", err)
	}
}

func TestRunSkipsJournaledPoints(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	keys := make([]string, 10)
	for i := range keys {
		keys[i], _ = ckpt.Key(i)
	}
	fn := func(i int) (testResult, error) {
		return testResult{N: i * i, F: float64(i) / 3, S: fmt.Sprintf("p%d", i)}, nil
	}

	// First run: journal half the points, then stop via cancellation.
	j, err := ckpt.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	_, err = runner.Run(ctx, j, keys, 1, nil, func(i int) (testResult, error) {
		if ran.Add(1) == 5 {
			cancel() // graceful: this point still completes and journals
		}
		return fn(i)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v", err)
	}
	if j.Len() != 5 {
		t.Fatalf("journal holds %d points, want 5", j.Len())
	}
	j.Close()

	// Resume: only the remaining points run, and the merged output matches a
	// clean run exactly.
	re, err := ckpt.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	var resumed atomic.Int64
	got, err := runner.Run(context.Background(), re, keys, 4, nil, func(i int) (testResult, error) {
		resumed.Add(1)
		return fn(i)
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Load() != 5 {
		t.Errorf("resume recomputed %d points, want 5", resumed.Load())
	}
	clean, err := runner.Run(context.Background(), nil, keys, 1, nil, fn)
	if err != nil {
		t.Fatal(err)
	}
	for i := range clean {
		if got[i] != clean[i] {
			t.Errorf("point %d: resumed %+v != clean %+v", i, got[i], clean[i])
		}
	}
}

func TestRunErrorDoesNotJournalFailedPoint(t *testing.T) {
	j, err := ckpt.Create(filepath.Join(t.TempDir(), "j"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	keys := []string{"a", "b", "c"}
	_, err = runner.Run(context.Background(), j, keys, 1, nil, func(i int) (int, error) {
		if i == 1 {
			return 0, errors.New("boom")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("no error")
	}
	if _, ok := j.Lookup("b"); ok {
		t.Error("failed point was journaled")
	}
	if _, ok := j.Lookup("a"); !ok {
		t.Error("completed point before the failure was not journaled")
	}
}

func TestRunNilJournal(t *testing.T) {
	out, err := runner.Run(context.Background(), nil, []string{"x", "y"}, 2, nil, func(i int) (int, error) {
		return i * 7, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 0 || out[1] != 7 {
		t.Errorf("out = %v", out)
	}
}

func TestRunRejectsUndecodableJournaledResult(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, err := ckpt.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append("k", "a string, not an int"); err != nil {
		t.Fatal(err)
	}
	j.Close()
	re, err := ckpt.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	_, err = runner.Run(context.Background(), re, []string{"k"}, 1, nil, func(int) (int, error) {
		return 0, nil
	})
	if err == nil || !strings.Contains(err.Error(), "does not decode") {
		t.Errorf("err = %v, want decode rejection", err)
	}
}

// TestRunProgressCallback pins the progress contract: one call up front for
// the journal-decoded prefix (so monitors learn the total immediately), one
// call per computed point, done strictly monotone and never repeated, total
// constant.
func TestRunProgressCallback(t *testing.T) {
	const n = 8
	keys := make([]string, n)
	for i := range keys {
		keys[i], _ = ckpt.Key(i)
	}

	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, err := ckpt.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // pre-record a resumed prefix
		if err := j.Append(keys[i], i*10); err != nil {
			t.Fatal(err)
		}
	}

	var mu sync.Mutex
	type call struct{ done, total int }
	var calls []call
	progress := func(done, total int) {
		mu.Lock()
		calls = append(calls, call{done, total})
		mu.Unlock()
	}
	out, err := runner.Run(context.Background(), j, keys, 4, progress, func(i int) (int, error) {
		return i * 10, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range out {
		if r != i*10 {
			t.Errorf("point %d = %d, want %d", i, r, i*10)
		}
	}
	if len(calls) != 1+(n-3) {
		t.Fatalf("%d progress calls, want 1 prefix + %d computed: %v", len(calls), n-3, calls)
	}
	if calls[0] != (call{3, n}) {
		t.Errorf("first call %v, want the journal-decoded prefix {3 %d}", calls[0], n)
	}
	for i, c := range calls {
		if c.total != n {
			t.Errorf("call %d: total %d, want %d", i, c.total, n)
		}
		if c.done != 3+i {
			t.Errorf("call %d: done %d, want %d (monotone, each value once)", i, c.done, 3+i)
		}
	}
	if last := calls[len(calls)-1]; last.done != n {
		t.Errorf("final call %v never reached done == total", last)
	}
}

// TestRunProgressNilSafe: a nil journal reports a zero prefix, and both an
// absent and an explicitly nil callback are fine.
func TestRunProgressNilSafe(t *testing.T) {
	keys := make([]string, 4)
	for i := range keys {
		keys[i], _ = ckpt.Key(fmt.Sprintf("p%d", i))
	}
	fn := func(i int) (int, error) { return i, nil }
	if _, err := runner.Run(context.Background(), nil, keys, 2, nil, fn); err != nil {
		t.Fatalf("nil callback: %v", err)
	}
	var first *[2]int
	cb := func(done, total int) {
		if first == nil {
			first = &[2]int{done, total}
		}
	}
	if _, err := runner.Run(context.Background(), nil, keys, 2, cb, fn); err != nil {
		t.Fatal(err)
	}
	if first == nil || *first != [2]int{0, 4} {
		t.Errorf("first progress call %v, want {0 4} for a journal-less sweep", first)
	}
}
