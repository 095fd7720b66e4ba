package core

import (
	"errors"
	"sync/atomic"
	"testing"

	"nocsprint/internal/runner"
)

var errFlaky = errors.New("flaky point")

// TestRunPointsPermanentFailureNotRetried: a panicking point surfaces from
// the sweep funnel as a recovered runner.PointError after a single call.
func TestRunPointsPermanentFailureNotRetried(t *testing.T) {
	var calls atomic.Int32
	_, err := sweep("retry", nil, NetSimParams{Workers: 2}, []int{0, 1}, func(i int) (int, error) {
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
}

// TestRunPointsNoRetryPolicyUnchanged: the funnel makes one attempt per
// point — a failure surfaces immediately.
func TestRunPointsNoRetryPolicyUnchanged(t *testing.T) {
	var calls atomic.Int32
	_, err := sweep("retry", nil, NetSimParams{Workers: 1}, []int{0}, func(int) (int, error) {
		calls.Add(1)
		return 0, errFlaky
	})
	if !errors.Is(err, errFlaky) || calls.Load() != 1 {
		t.Errorf("no-policy funnel: calls=%d err=%v", calls.Load(), err)
	}
}
