package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"nocsprint/internal/ckpt"
)

// keysN returns n distinct journal keys k0, k1, ….
func keysN(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	return keys
}

// newJournal creates an empty journal in a per-test directory.
func newJournal(t *testing.T) *ckpt.Journal {
	t.Helper()
	j, err := ckpt.Create(filepath.Join(t.TempDir(), "sweep.journal"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

// journaled returns the int result j holds for each key, and whether it
// holds one: the record of which points completed.
func journaled(t *testing.T, j *ckpt.Journal, keys []string) ([]int, []bool) {
	t.Helper()
	out := make([]int, len(keys))
	done := make([]bool, len(keys))
	for i, k := range keys {
		raw, ok := j.Lookup(k)
		if !ok {
			continue
		}
		if err := json.Unmarshal(raw, &out[i]); err != nil {
			t.Fatal(err)
		}
		done[i] = true
	}
	return out, done
}

func TestWorkersResolution(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	for _, n := range []int{1, 2, 7, 64} {
		if got := Workers(n); got != n {
			t.Errorf("Workers(%d) = %d", n, got)
		}
	}
}

func TestRunEmpty(t *testing.T) {
	out, err := Run(context.Background(), nil, nil, 4, nil, func(int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("Run(no keys) = %v, %v", out, err)
	}
}

func TestRunPreservesOrder(t *testing.T) {
	keys := keysN(100)
	for _, workers := range []int{1, 2, 8, 200} {
		out, err := Run(context.Background(), nil, keys, workers, nil, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range out {
			if r != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, r, i*i)
			}
		}
	}
}

// TestMapDeterministic asserts the core guarantee: a seeded pseudo-random
// computation per point yields identical results from Run at any worker
// count.
func TestMapDeterministic(t *testing.T) {
	keys := keysN(64)
	fn := func(i int) (float64, error) {
		rng := rand.New(rand.NewSource(int64(i)))
		var s float64
		for k := 0; k < 1000; k++ {
			s += rng.Float64()
		}
		return s, nil
	}
	serial, err := Run(context.Background(), nil, keys, 1, nil, fn)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 8} {
		parallel, err := Run(context.Background(), nil, keys, workers, nil, fn)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("workers=%d: results differ from serial", workers)
		}
	}
}

// TestMapCtxDeterministicAcrossWorkers mirrors the sweep-level determinism
// tests at the pool level: Run returns identical results, and leaves
// identical journals, at workers=1 and workers=8.
func TestMapCtxDeterministicAcrossWorkers(t *testing.T) {
	keys := keysN(64)
	run := func(workers int) ([]int, []int, []bool) {
		j := newJournal(t)
		out, err := Run(context.Background(), j, keys, workers, nil, func(i int) (int, error) {
			return i*i + 7, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		rec, done := journaled(t, j, keys)
		return out, rec, done
	}
	o1, r1, d1 := run(1)
	o8, r8, d8 := run(8)
	if !reflect.DeepEqual(o1, o8) || !reflect.DeepEqual(r1, r8) || !reflect.DeepEqual(d1, d8) {
		t.Errorf("Run differs between workers=1 and workers=8:\nout %v vs %v\njournal %v vs %v\ndone %v vs %v", o1, o8, r1, r8, d1, d8)
	}
}

func TestRunReportsLowestIndexedError(t *testing.T) {
	fail := map[int]bool{17: true, 31: true, 44: true}
	for _, workers := range []int{1, 4} {
		_, err := Run(context.Background(), nil, keysN(50), workers, nil, func(i int) (int, error) {
			if fail[i] {
				return 0, fmt.Errorf("boom at %d", i)
			}
			return i, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: no error", workers)
		}
		if !strings.Contains(err.Error(), "point 17") || !strings.Contains(err.Error(), "boom at 17") {
			t.Errorf("workers=%d: err = %v, want lowest-indexed point 17", workers, err)
		}
	}
}

func TestRunErrorWrapping(t *testing.T) {
	sentinel := errors.New("sentinel")
	_, err := Run(context.Background(), nil, keysN(1), 1, nil, func(int) (int, error) { return 0, sentinel })
	if !errors.Is(err, sentinel) {
		t.Errorf("error %v does not wrap sentinel", err)
	}
}

// TestRunErrorNamesSweepIndex: with points 0-2 already journaled, errors
// and PointError.Index name a failing point's index in the sweep, not its
// position among the points left to run.
func TestRunErrorNamesSweepIndex(t *testing.T) {
	keys := keysN(8)
	resumed := func(t *testing.T) *ckpt.Journal {
		j := newJournal(t)
		for i := 0; i < 3; i++ {
			if err := j.Append(keys[i], i); err != nil {
				t.Fatal(err)
			}
		}
		return j
	}

	_, err := Run(context.Background(), resumed(t), keys, 1, nil, func(i int) (int, error) {
		if i == 4 {
			return 0, errors.New("boom")
		}
		return i, nil
	})
	if err == nil || !strings.Contains(err.Error(), "runner: point 4: boom") {
		t.Errorf("failure at point 4 reported as %v", err)
	}

	_, err = Run(context.Background(), resumed(t), keys, 1, nil, func(i int) (int, error) {
		if i == 5 {
			panic("boom")
		}
		return i, nil
	})
	var pe *PointError
	if !errors.As(err, &pe) || pe.Index != 5 || !strings.Contains(err.Error(), "point 5 panicked") {
		t.Errorf("panic at point 5 reported as %v", err)
	}
}

// TestRunStopsClaimingAfterFailure checks that a failure prevents unclaimed
// points from starting (bounded waste on expensive sweeps).
func TestRunStopsClaimingAfterFailure(t *testing.T) {
	const n = 10_000
	var ran atomic.Int64
	_, err := Run(context.Background(), nil, keysN(n), 2, nil, func(int) (int, error) {
		ran.Add(1)
		return 0, errors.New("fail fast")
	})
	if err == nil {
		t.Fatal("no error")
	}
	if got := ran.Load(); got >= n {
		t.Errorf("all %d points ran despite early failure", got)
	}
}

func TestRunNilContext(t *testing.T) {
	out, err := Run(nil, nil, keysN(3), 2, nil, func(i int) (int, error) {
		return (i + 1) * 10, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, []int{10, 20, 30}) {
		t.Errorf("out = %v", out)
	}
}

func TestRunPreCancelledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		j := newJournal(t)
		var ran atomic.Int64
		_, err := Run(ctx, j, keysN(20), workers, nil, func(int) (int, error) {
			ran.Add(1)
			return 0, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if ran.Load() != 0 || j.Len() != 0 {
			t.Errorf("workers=%d: %d points ran, %d journaled under a pre-cancelled context", workers, ran.Load(), j.Len())
		}
	}
}

// TestRunCancelStopsClaimingInFlightFinish pins the graceful-interrupt
// contract: after cancellation no new points are claimed, but the points
// already in flight run to completion and are journaled.
func TestRunCancelStopsClaimingInFlightFinish(t *testing.T) {
	const workers = 4
	keys := keysN(100)
	j := newJournal(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var inflight atomic.Int64
	go func() {
		for inflight.Load() < workers {
			runtime.Gosched()
		}
		cancel()
	}()
	_, err := Run(ctx, j, keys, workers, nil, func(i int) (int, error) {
		inflight.Add(1)
		<-ctx.Done() // block until the sweep is cancelled, then finish
		return i * 2, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	out, done := journaled(t, j, keys)
	completed := 0
	for i, d := range done {
		if !d {
			continue
		}
		completed++
		if out[i] != i*2 {
			t.Errorf("journaled point %d = %d, want %d", i, out[i], i*2)
		}
	}
	// Exactly the in-flight points finished: each worker had claimed one
	// point when the cancel landed, and no worker claims another afterwards.
	if completed != workers {
		t.Errorf("%d points completed after cancel, want exactly %d in-flight", completed, workers)
	}
}

func TestRunCancelMidSweepOneWorker(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	keys := keysN(20)
	j := newJournal(t)
	_, err := Run(ctx, j, keys, 1, nil, func(i int) (int, error) {
		if i == 5 {
			cancel()
		}
		return i + 100, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	out, done := journaled(t, j, keys)
	for i := range keys {
		want := i <= 5
		if done[i] != want {
			t.Errorf("point %d journaled = %v, want %v", i, done[i], want)
		}
		if want && out[i] != i+100 {
			t.Errorf("journaled point %d = %d", i, out[i])
		}
	}
}

func TestRunCancelAfterLastPointIsNoError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out, err := Run(ctx, nil, keysN(3), 1, nil, func(i int) (int, error) {
		if i == 2 {
			cancel() // lands after the final point's work is done
		}
		return i + 1, nil
	})
	if err != nil {
		t.Fatalf("cancel after completion reported error: %v", err)
	}
	if !reflect.DeepEqual(out, []int{1, 2, 3}) {
		t.Errorf("out = %v", out)
	}
}

// TestRunReportsAllConcurrentErrors pins the all-errors contract: every
// point that ran and failed is reported, joined in index order, not just the
// first. A barrier forces all four points to be in flight simultaneously so
// none of the failures can suppress the others by stopping claims.
func TestRunReportsAllConcurrentErrors(t *testing.T) {
	const n = 4
	j := newJournal(t)
	var barrier sync.WaitGroup
	barrier.Add(n)
	_, err := Run(context.Background(), j, keysN(n), n, nil, func(int) (int, error) {
		barrier.Done()
		barrier.Wait() // every point is claimed before any fails
		return 0, errors.New("boom")
	})
	if err == nil {
		t.Fatal("no error")
	}
	msg := err.Error()
	for i := 0; i < n; i++ {
		if !strings.Contains(msg, fmt.Sprintf("point %d", i)) {
			t.Errorf("error %q is missing point %d", msg, i)
		}
	}
	// Index order: "point 0" before "point 3".
	if strings.Index(msg, "point 0") > strings.Index(msg, "point 3") {
		t.Errorf("errors not joined in index order: %q", msg)
	}
	if j.Len() != 0 {
		t.Errorf("%d failed points journaled", j.Len())
	}
}

// TestMapCtxPanicIsolated is the regression test for panic recovery in Run:
// one panicking point must surface as a *PointError instead of crashing the
// process, and sibling points already in flight must still be journaled.
func TestMapCtxPanicIsolated(t *testing.T) {
	const n = 4
	keys := keysN(n)
	j := newJournal(t)
	// A barrier ensures all n points are in flight simultaneously before
	// any of them proceeds, so the panic cannot prevent siblings from
	// starting: their records exist if and only if recovery keeps the pool
	// alive.
	var barrier sync.WaitGroup
	barrier.Add(n)
	_, err := Run(context.Background(), j, keys, n, nil, func(i int) (int, error) {
		barrier.Done()
		barrier.Wait()
		if i == 2 {
			panic("boom at point 2")
		}
		return i * 10, nil
	})
	if err == nil {
		t.Fatal("Run returned nil error despite a panicking point")
	}
	var pe *PointError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v does not unwrap to *PointError", err)
	}
	if pe.Index != 2 {
		t.Errorf("PointError.Index = %d, want 2", pe.Index)
	}
	if pe.Value != "boom at point 2" {
		t.Errorf("PointError.Value = %v, want the panic value", pe.Value)
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "runner") {
		t.Errorf("PointError.Stack does not look like a stack trace: %q", pe.Stack)
	}
	if !strings.Contains(err.Error(), "point 2 panicked") {
		t.Errorf("error text %q does not name the panicking point", err)
	}
	out, done := journaled(t, j, keys)
	if !reflect.DeepEqual(done, []bool{true, true, false, true}) {
		t.Errorf("journaled points %v, want every sibling and not the panicking point", done)
	}
	for _, i := range []int{0, 1, 3} {
		if out[i] != i*10 {
			t.Errorf("journaled point %d = %d, want %d", i, out[i], i*10)
		}
	}
}

// TestMapSerialPanicRecovered covers Run with one worker: the panic must
// still become an error, the earlier point must be kept, and no point at or
// after the panic may complete.
func TestMapSerialPanicRecovered(t *testing.T) {
	keys := keysN(3)
	j := newJournal(t)
	_, err := Run(context.Background(), j, keys, 1, nil, func(i int) (int, error) {
		if i == 1 {
			panic(errors.New("typed panic"))
		}
		return i + 100, nil
	})
	var pe *PointError
	if !errors.As(err, &pe) || pe.Index != 1 {
		t.Fatalf("want *PointError for point 1, got %v", err)
	}
	out, done := journaled(t, j, keys)
	if !reflect.DeepEqual(done, []bool{true, false, false}) || out[0] != 100 {
		t.Errorf("journaled %v, point 0 = %d; want only point 0 = 100", done, out[0])
	}
}
