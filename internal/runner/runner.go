// Package runner provides the parallel experiment runner: a generic,
// order-preserving worker pool that fans independent simulation points
// across goroutines. Every sweep-shaped driver in internal/core is a pure
// function of (configuration, seed) per point, so the pool guarantees
// results identical to a serial run at any worker count — parallelism
// changes wall-clock time, never output.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PointError reports a sweep point whose function panicked. The worker pool
// converts the panic into this error instead of letting it unwind the
// worker goroutine (which would kill the whole process and discard every
// sibling worker's completed results). Value is the recovered panic value
// and Stack the panicking goroutine's stack at recovery time.
//
// A panic is a programming error in the point function, not a transient
// condition, so retry classifiers should treat a PointError as permanent.
type PointError struct {
	Index int    // index of the point whose fn panicked
	Value any    // value recovered from the panic
	Stack []byte // stack trace captured at recovery
}

func (e *PointError) Error() string {
	return fmt.Sprintf("point %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// safeCall runs fn for point i, converting a panic into a *PointError so a
// single bad point cannot unwind a pool worker.
func safeCall[P, R any](ctx context.Context, fn func(context.Context, P) (R, error), i int, p P) (r R, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PointError{Index: i, Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, p)
}

// Workers resolves a worker-count knob: n <= 0 selects GOMAXPROCS (use all
// cores), any positive n is taken literally. 1 means legacy serial
// execution on the calling goroutine.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// MapCtx applies fn to every point and returns the results in input order
// (out[i] = fn(ctx, points[i])) together with a per-index completion mask.
// Work is fanned across Workers(workers) goroutines; workers == 1 runs
// serially on the calling goroutine with no goroutine or channel overhead.
//
// fn must be safe to call concurrently from multiple goroutines when
// workers != 1; in the experiment layer that means each point constructs
// its own network, traffic set, and RNG, and only reads shared
// configuration.
//
// Cancellation: workers check ctx after claiming an index and before
// running it, so cancelling ctx stops new points from starting promptly
// while points already in flight run to completion (an interrupted sweep
// keeps every finished result — see internal/ckpt). The returned error then
// satisfies errors.Is(err, ctx.Err()).
//
// Failure: the first error stops further points from being claimed, but —
// as with cancellation — points already running finish, and every error
// observed is reported, joined in index order (lowest-indexed first, so the
// combined error is deterministic for a deterministic fn), each wrapped
// with its point index. out and done still describe the points that did
// complete: partial progress is returned, never discarded.
//
// Panics: a panicking fn does not crash the pool. The panic is recovered
// inside the worker and reported as a *PointError (point index, recovered
// value, stack) with the same partial-progress semantics as any other point
// failure — sibling points already in flight finish and keep their results.
func MapCtx[P, R any](ctx context.Context, points []P, workers int, fn func(context.Context, P) (R, error)) ([]R, []bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]R, len(points))
	done := make([]bool, len(points))
	if len(points) == 0 {
		return out, done, nil
	}
	w := Workers(workers)
	if w > len(points) {
		w = len(points)
	}
	errs := make([]error, len(points))
	if w == 1 {
		for i, p := range points {
			if ctx.Err() != nil {
				break
			}
			r, err := safeCall(ctx, fn, i, p)
			if err != nil {
				errs[i] = err
				break
			}
			out[i] = r
			done[i] = true
		}
	} else {
		var (
			next   atomic.Int64 // next unclaimed point index
			failed atomic.Bool  // stops claiming new points after an error
			wg     sync.WaitGroup
		)
		for g := 0; g < w; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(points) {
						return
					}
					// A claim is only a counter bump: re-check failure and
					// cancellation before committing any work to the claimed
					// point, so at most the points already in flight run on
					// after a failure or cancel.
					if failed.Load() || ctx.Err() != nil {
						return
					}
					r, err := safeCall(ctx, fn, i, points[i])
					if err != nil {
						errs[i] = err
						failed.Store(true)
						continue
					}
					out[i] = r
					done[i] = true
				}
			}()
		}
		wg.Wait()
	}

	var joined []error
	for i, err := range errs {
		if err != nil {
			joined = append(joined, fmt.Errorf("runner: point %d: %w", i, err))
		}
	}
	if err := ctx.Err(); err != nil {
		complete := true
		for _, d := range done {
			if !d {
				complete = false
				break
			}
		}
		// A cancel that landed after the last point completed changes
		// nothing and is not an error.
		if !complete {
			joined = append(joined, fmt.Errorf("runner: sweep cancelled: %w", err))
		}
	}
	if len(joined) > 0 {
		return out, done, errors.Join(joined...)
	}
	return out, done, nil
}
