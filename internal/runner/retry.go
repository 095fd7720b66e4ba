package runner

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"
)

// RetryPolicy governs point-level retry of transient failures: capped
// exponential backoff with full jitter, a bounded attempt budget, and a
// caller-supplied transient/permanent classifier. The zero policy retries
// nothing (one attempt, no classifier).
//
// Jitter is drawn from a deterministic source seeded with Seed, so a given
// policy produces the same delay sequence on every run — retry timing is
// testable and a resumed sweep backs off identically to the original.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget including the first try.
	// Values below 1 behave as 1 (no retries).
	MaxAttempts int
	// BaseDelay is the pre-jitter backoff before the second attempt; each
	// further attempt doubles it. Zero means retries happen immediately.
	BaseDelay time.Duration
	// MaxDelay caps the pre-jitter exponential growth. Zero means no cap.
	MaxDelay time.Duration
	// Transient classifies an error as retryable. A nil classifier treats
	// every error as permanent, disabling retry entirely.
	Transient func(error) bool
	// Seed seeds the jitter source; equal seeds give equal delay sequences.
	Seed int64
	// OnRetry, when non-nil, observes each retry decision before its
	// backoff sleep: the 1-based attempt that failed, the jittered delay
	// about to be slept, and the error that triggered the retry. Callers
	// use it to surface retries (job results, metrics) instead of hiding
	// them.
	OnRetry func(attempt int, delay time.Duration, err error)
}

// Backoff returns the pre-jitter backoff after the given 1-based failed
// attempt: BaseDelay doubled attempt-1 times, capped at MaxDelay (when set)
// and guarded against overflow.
func (p RetryPolicy) Backoff(attempt int) time.Duration {
	if p.BaseDelay <= 0 || attempt < 1 {
		return 0
	}
	d := p.BaseDelay
	for i := 1; i < attempt; i++ {
		d *= 2
		if d > p.MaxDelay && p.MaxDelay > 0 {
			return p.MaxDelay
		}
		if d <= 0 { // overflow
			if p.MaxDelay > 0 {
				return p.MaxDelay
			}
			return 1<<63 - 1
		}
	}
	if p.MaxDelay > 0 && d > p.MaxDelay {
		return p.MaxDelay
	}
	return d
}

// Retry runs fn under policy p: transient errors (per p.Transient) are
// retried up to p.MaxAttempts total attempts, sleeping a full-jittered
// backoff (uniform in [0, Backoff(attempt)]) between attempts. Permanent
// errors are returned immediately and unwrapped.
//
// Cancelling ctx interrupts a backoff sleep immediately; the returned error
// then satisfies errors.Is against both ctx.Err() and the attempt's error.
// When the budget is exhausted the last error is returned wrapped with the
// attempt count, still matchable with errors.Is/errors.As.
func Retry[R any](ctx context.Context, p RetryPolicy, fn func(context.Context) (R, error)) (R, error) {
	var zero R
	if ctx == nil {
		ctx = context.Background()
	}
	attempts := p.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	rng := rand.New(rand.NewSource(p.Seed))
	var lastErr error
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr == nil {
				return zero, fmt.Errorf("runner: retry cancelled before attempt %d: %w", attempt, err)
			}
			return zero, fmt.Errorf("runner: retry cancelled before attempt %d: %w", attempt, errors.Join(err, lastErr))
		}
		r, err := fn(ctx)
		if err == nil {
			return r, nil
		}
		lastErr = err
		if p.Transient == nil || !p.Transient(err) {
			return zero, err
		}
		if attempt >= attempts {
			return zero, fmt.Errorf("runner: retry budget of %d attempt(s) exhausted: %w", attempts, lastErr)
		}
		delay := p.Backoff(attempt)
		if delay > 0 {
			// Full jitter: uniform in [0, delay]. A saturated backoff of
			// MaxInt64 would overflow the +1, so it draws from [0, MaxInt64-1].
			delay = time.Duration(rng.Int63n(min(int64(delay), math.MaxInt64-1) + 1))
		}
		if p.OnRetry != nil {
			p.OnRetry(attempt, delay, err)
		}
		if delay > 0 {
			t := time.NewTimer(delay)
			select {
			case <-ctx.Done():
				t.Stop()
				return zero, fmt.Errorf("runner: retry interrupted during backoff after attempt %d: %w",
					attempt, errors.Join(ctx.Err(), lastErr))
			case <-t.C:
			}
		}
	}
}
