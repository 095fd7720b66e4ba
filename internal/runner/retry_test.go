package runner

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// errTransient marks retryable failures in these tests; the classifier is
// an errors.Is check against it, mirroring how the serve layer classifies.
var errTransient = errors.New("transient")

func transientPolicy(attempts int) RetryPolicy {
	return RetryPolicy{
		MaxAttempts: attempts,
		BaseDelay:   time.Microsecond, // real but negligible sleeps
		MaxDelay:    8 * time.Microsecond,
		Transient:   func(err error) bool { return errors.Is(err, errTransient) },
		Seed:        1,
	}
}

func TestRetryPermanentErrorNotRetried(t *testing.T) {
	perm := errors.New("permanent failure")
	calls := 0
	_, err := Retry(context.Background(), transientPolicy(5), func(context.Context) (int, error) {
		calls++
		return 0, perm
	})
	if calls != 1 {
		t.Errorf("permanent error was attempted %d times, want 1", calls)
	}
	if !errors.Is(err, perm) {
		t.Errorf("error %v does not match the permanent error", err)
	}
}

func TestRetryPointErrorIsPermanentUnderClassifier(t *testing.T) {
	// A panic converted by the pool must not be retried by a classifier
	// that only marks errTransient: panics are programming errors.
	calls := 0
	_, err := Retry(context.Background(), transientPolicy(5), func(context.Context) (int, error) {
		calls++
		return 0, &PointError{Index: 3, Value: "boom"}
	})
	var pe *PointError
	if !errors.As(err, &pe) || calls != 1 {
		t.Errorf("PointError retried %d times (want 1), err=%v", calls, err)
	}
}

func TestRetryTransientSucceedsWithinBudget(t *testing.T) {
	var retries []int
	p := transientPolicy(4)
	p.OnRetry = func(attempt int, _ time.Duration, _ error) { retries = append(retries, attempt) }
	calls := 0
	r, err := Retry(context.Background(), p, func(context.Context) (string, error) {
		calls++
		if calls < 3 {
			return "", fmt.Errorf("attempt %d: %w", calls, errTransient)
		}
		return "ok", nil
	})
	if err != nil || r != "ok" {
		t.Fatalf("Retry = (%q, %v), want (ok, nil)", r, err)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
	if !reflect.DeepEqual(retries, []int{1, 2}) {
		t.Errorf("OnRetry observed attempts %v, want [1 2]", retries)
	}
}

func TestRetryBudgetExhaustionSurfacesLastError(t *testing.T) {
	calls := 0
	_, err := Retry(context.Background(), transientPolicy(3), func(context.Context) (int, error) {
		calls++
		return 0, fmt.Errorf("failure %d: %w", calls, errTransient)
	})
	if calls != 3 {
		t.Errorf("calls = %d, want the full budget of 3", calls)
	}
	if err == nil || !errors.Is(err, errTransient) {
		t.Fatalf("exhaustion error %v does not wrap the last error", err)
	}
	for _, want := range []string{"budget of 3", "failure 3"} {
		if got := err.Error(); !strings.Contains(got, want) {
			t.Errorf("error %q does not mention %q", got, want)
		}
	}
}

func TestRetryBackoffCapAndGrowth(t *testing.T) {
	p := RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second}
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, time.Second, time.Second,
	}
	for i, w := range want {
		if got := p.Backoff(i + 1); got != w {
			t.Errorf("Backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
	// Deep attempts must saturate at the cap, never overflow or go negative.
	if got := p.Backoff(200); got != time.Second {
		t.Errorf("Backoff(200) = %v, want the cap", got)
	}
	uncapped := RetryPolicy{BaseDelay: time.Hour}
	if got := uncapped.Backoff(200); got <= 0 {
		t.Errorf("uncapped Backoff(200) overflowed to %v", got)
	}
}

func TestRetryJitterDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []time.Duration {
		p := transientPolicy(6)
		p.Seed = seed
		p.BaseDelay = time.Millisecond
		p.MaxDelay = 32 * time.Millisecond
		var delays []time.Duration
		p.OnRetry = func(_ int, d time.Duration, _ error) { delays = append(delays, d) }
		Retry(context.Background(), p, func(context.Context) (int, error) { return 0, errTransient })
		return delays
	}
	a, b := run(42), run(42)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed gave different jitter sequences:\n%v\n%v", a, b)
	}
	if len(a) != 5 {
		t.Fatalf("expected 5 recorded retries, got %d", len(a))
	}
	c := run(43)
	if reflect.DeepEqual(a, c) {
		t.Errorf("different seeds gave identical jitter sequences %v", a)
	}
	bounds := RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: 32 * time.Millisecond}
	for i, d := range a {
		if max := bounds.Backoff(i + 1); d < 0 || d > max {
			t.Errorf("delay %d = %v outside full-jitter range [0, %v]", i, d, max)
		}
	}
}

func TestRetryCancellationInterruptsBackoffImmediately(t *testing.T) {
	p := RetryPolicy{
		MaxAttempts: 2,
		BaseDelay:   time.Hour, // the test would time out if the sleep ran
		Transient:   func(error) bool { return true },
	}
	ctx, cancel := context.WithCancel(context.Background())
	boom := errors.New("flaky")
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, err := Retry(ctx, p, func(context.Context) (int, error) { return 0, boom })
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let it enter the backoff sleep
	cancel()
	var err error
	select {
	case err = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Retry did not return after cancellation — backoff sleep was not interrupted")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("cancellation took %v to interrupt the sleep", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not match context.Canceled", err)
	}
	if !errors.Is(err, boom) {
		t.Errorf("error %v lost the attempt's failure", err)
	}
}

// TestRetrySaturatedBackoff: a backoff saturated at MaxInt64 (no MaxDelay
// cap) still draws its jitter instead of panicking, and the retry then
// sleeps until the context is cancelled.
func TestRetrySaturatedBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := RetryPolicy{
		MaxAttempts: 2,
		BaseDelay:   math.MaxInt64,
		Transient:   func(error) bool { return true },
		OnRetry:     func(int, time.Duration, error) { cancel() },
	}
	_, err := Retry(ctx, p, func(context.Context) (int, error) { return 0, errors.New("flaky") })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not match context.Canceled", err)
	}
}

func TestRetryPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	_, err := Retry(ctx, transientPolicy(3), func(context.Context) (int, error) {
		calls++
		return 0, errTransient
	})
	if calls != 0 {
		t.Errorf("pre-cancelled Retry still ran fn %d times", calls)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not match context.Canceled", err)
	}
}

func TestRetryZeroPolicySingleAttempt(t *testing.T) {
	calls := 0
	boom := errors.New("x")
	_, err := Retry(context.Background(), RetryPolicy{}, func(context.Context) (int, error) {
		calls++
		return 0, boom
	})
	if calls != 1 || !errors.Is(err, boom) {
		t.Errorf("zero policy: calls=%d err=%v, want exactly one attempt returning the error", calls, err)
	}
}
