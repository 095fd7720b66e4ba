// Package runner is the sweep executor: it runs a sweep's independent
// points across a worker pool, decodes the points a checkpoint journal
// already holds instead of recomputing them, journals each fresh result as
// it completes, and isolates every point behind panic recovery.
// Every sweep-shaped driver in internal/core is a pure function of
// (configuration, seed) per point, so results are identical to a serial
// run at any worker count — parallelism changes wall-clock time, never
// output.
package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"nocsprint/internal/ckpt"
)

// PointError reports a sweep point whose function panicked. Run converts
// the panic into this error instead of letting it unwind the worker
// goroutine (which would kill the whole process and discard every sibling
// worker's completed results). Value is the recovered panic value and
// Stack the panicking goroutine's stack at recovery time.
type PointError struct {
	Index int    // sweep index of the point whose fn panicked
	Value any    // value recovered from the panic
	Stack []byte // stack trace captured at recovery
}

func (e *PointError) Error() string {
	return fmt.Sprintf("point %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// Workers resolves a worker-count knob: n <= 0 selects GOMAXPROCS (use all
// cores), any positive n is taken literally.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Run executes one sweep and returns its results in point order. keys[i]
// is the canonical journal key of point i (see ckpt.Key) and fn(i)
// computes point i; fn must be safe to call from several goroutines at
// once. Duplicate keys are rejected up front: they mean a key misses a
// result-determining parameter.
//
// Points whose key j already holds are decoded instead of recomputed (a
// record that does not decode is an error); the rest are claimed in index
// order by Workers(workers) goroutines, and each result is appended (and
// fsynced) to j the moment its point completes, so an interrupt or crash
// loses only in-flight work. A nil j journals nothing. Decoded results
// equal fresh ones as long as R's JSON encoding round-trips, so a resumed
// sweep is indistinguishable from an uninterrupted one.
//
// Each point runs fn once inside panic recovery, and a panic becomes a
// *PointError. Its journal append runs inside the recovery but outside fn,
// and a failed append, which may leave a torn record, fails the sweep.
//
// The first failure stops new claims, and so does cancelling ctx (nil
// never cancels); points already running finish and are journaled. Every
// error observed is returned, joined in point order, each naming its
// point's sweep index, and a cancel that leaves points unrun adds one
// satisfying errors.Is(err, ctx.Err()). Results are returned only on
// success.
//
// progress, when non-nil, is called once with the journaled count and then
// once per computed point; calls never overlap, done strictly increases
// and total is len(keys).
func Run[R any](ctx context.Context, j *ckpt.Journal, keys []string, workers int,
	progress func(done, total int), fn func(i int) (R, error)) ([]R, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]R, len(keys))
	seen := make(map[string]int, len(keys))
	todo := make([]int, 0, len(keys))
	for i, key := range keys {
		if prev, dup := seen[key]; dup {
			return nil, fmt.Errorf("runner: points %d and %d share key %s (point key must include every result-determining parameter)", prev, i, key)
		}
		seen[key] = i
		if j != nil {
			if raw, ok := j.Lookup(key); ok {
				if err := json.Unmarshal(raw, &out[i]); err != nil {
					return nil, fmt.Errorf("runner: journaled result for point %d (key %s) does not decode: %w", i, key, err)
				}
				continue
			}
		}
		todo = append(todo, i)
	}
	done := len(keys) - len(todo)
	if progress != nil {
		progress(done, len(keys))
	}

	var (
		errs   = make([]error, len(keys))
		next   atomic.Int64 // next unclaimed position in todo
		failed atomic.Bool  // stops claims after an error
		mu     sync.Mutex   // guards done; held across progress so calls never overlap
		wg     sync.WaitGroup
	)
	for w := min(Workers(workers), len(todo)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				// A claim is only a counter bump: re-check failure and
				// cancellation before committing any work to it, so only
				// the points already in flight run on after either.
				if k >= len(todo) || failed.Load() || ctx.Err() != nil {
					return
				}
				i := todo[k]
				r, err := runPoint(j, keys[i], i, fn)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					continue
				}
				out[i] = r
				mu.Lock()
				done++
				if progress != nil {
					progress(done, len(keys))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	var joined []error
	for i, err := range errs {
		if err != nil {
			joined = append(joined, fmt.Errorf("runner: point %d: %w", i, err))
		}
	}
	// A cancel that landed after the last point completed changes nothing
	// and is not an error.
	if err := ctx.Err(); err != nil && done < len(keys) {
		joined = append(joined, fmt.Errorf("runner: sweep cancelled: %w", err))
	}
	if len(joined) > 0 {
		return nil, errors.Join(joined...)
	}
	return out, nil
}

// runPoint computes point i inside panic recovery, then journals the
// result under key, still inside the recovery.
func runPoint[R any](j *ckpt.Journal, key string, i int, fn func(int) (R, error)) (r R, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PointError{Index: i, Value: v, Stack: debug.Stack()}
		}
	}()
	r, err = fn(i)
	if err == nil && j != nil {
		err = j.Append(key, r)
	}
	return r, err
}
