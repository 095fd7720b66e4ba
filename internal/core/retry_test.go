package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nocsprint/internal/ckpt"
	"nocsprint/internal/runner"
)

// flakySim builds a NetSimParams whose Retry policy treats errFlaky as
// transient, with negligible real sleeps and retries recorded into events.
var errFlaky = errors.New("flaky point")

func retrySim(attempts int, record *[]string, mu *sync.Mutex) NetSimParams {
	return NetSimParams{
		Workers: 2,
		Retry: &runner.RetryPolicy{
			MaxAttempts: attempts,
			BaseDelay:   time.Microsecond,
			MaxDelay:    4 * time.Microsecond,
			Transient:   func(err error) bool { return errors.Is(err, errFlaky) },
			Seed:        7,
			OnRetry: func(attempt int, _ time.Duration, err error) {
				mu.Lock()
				*record = append(*record, fmt.Sprintf("attempt %d: %v", attempt, err))
				mu.Unlock()
			},
		},
	}
}

// pointIndexKey keys sweep point i as "k<i>".
func pointIndexKey(i int) (string, error) { return fmt.Sprintf("k%d", i), nil }

// TestRunPointsRetriesTransientFailures drives the sweep funnel directly: a
// point that fails transiently twice must still land its (deterministic)
// result, the retries must be visible through OnRetry, and the journal must
// record the point exactly once.
func TestRunPointsRetriesTransientFailures(t *testing.T) {
	var events []string
	var mu sync.Mutex
	sim := retrySim(4, &events, &mu)
	j, err := ckpt.Create(filepath.Join(t.TempDir(), "sweep.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	sim.Journal = j

	var failures atomic.Int32
	failures.Store(2) // point 2 fails its first two attempts
	out, err := sweepKeyed(sim, []int{0, 1, 2, 3}, pointIndexKey, func(i int) (int, error) {
		if i == 2 && failures.Add(-1) >= 0 {
			return 0, fmt.Errorf("point %d not ready: %w", i, errFlaky)
		}
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 4, 9}; !reflect.DeepEqual(out, want) {
		t.Errorf("out = %v, want %v", out, want)
	}
	if len(events) != 2 {
		t.Errorf("recorded %d retry events %v, want 2", len(events), events)
	}
	if j.Len() != 4 {
		t.Errorf("journal holds %d records, want 4 (retried point journaled once)", j.Len())
	}
}

// TestRunPointsPermanentFailureNotRetried: the classifier sees a permanent
// error (including a recovered panic) and surfaces it without burning the
// retry budget.
func TestRunPointsPermanentFailureNotRetried(t *testing.T) {
	var events []string
	var mu sync.Mutex
	sim := retrySim(5, &events, &mu)
	var calls atomic.Int32
	_, err := sweepKeyed(sim, []int{0, 1}, pointIndexKey, func(i int) (int, error) {
		if i == 1 {
			calls.Add(1)
			panic("driver bug")
		}
		return i, nil
	})
	var pe *runner.PointError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a recovered runner.PointError", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("panicking point attempted %d times, want 1 (panics are permanent)", got)
	}
	if len(events) != 0 {
		t.Errorf("unexpected retry events for a permanent failure: %v", events)
	}
}

// TestRunPointsNoRetryPolicyUnchanged: without a policy the funnel makes
// one attempt per point — a failure surfaces immediately.
func TestRunPointsNoRetryPolicyUnchanged(t *testing.T) {
	var calls atomic.Int32
	_, err := sweepKeyed(NetSimParams{Workers: 1}, []int{0}, pointIndexKey, func(int) (int, error) {
		calls.Add(1)
		return 0, errFlaky
	})
	if !errors.Is(err, errFlaky) || calls.Load() != 1 {
		t.Errorf("no-policy funnel: calls=%d err=%v", calls.Load(), err)
	}
}
