package ckpt

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"nocsprint/internal/runner"
)

// Run executes one sweep with journal-backed skip and record semantics.
// keys[i] is the canonical key of point i (see Key); fn(ctx, i) computes
// point i's result. Points whose key the journal already holds are not
// recomputed — their recorded results are decoded instead — and every
// freshly computed point is appended (and fsynced) the moment it completes,
// so an interrupt or crash can only lose in-flight work.
//
// The remaining points fan out across runner.Workers(workers) goroutines
// via runner.MapCtx: cancelling ctx stops claiming new points promptly
// while in-flight points run to completion and are journaled; Run then
// returns an error satisfying errors.Is(err, ctx.Err()). The journal holds
// the partial progress — re-running the same sweep against it resumes.
//
// A nil journal degrades to a plain context-aware sweep. Results decoded
// from the journal are bit-identical to freshly computed ones as long as
// R's JSON encoding round-trips (true for the exported numeric/bool/string
// result structs the experiment layer journals), so resumed sweeps are
// indistinguishable from uninterrupted ones.
//
// A non-nil progress callback receives (done, total) as points resolve:
// once for the journal-decoded prefix (possibly done == 0, so monitors learn
// the total immediately) and once per computed point. Calls come from worker
// goroutines but are serialized; the callback observes each done value at
// most once and never sees it decrease. Progress reporting is observational
// — it cannot perturb results and does not enter journal keys.
func Run[R any](ctx context.Context, j *Journal, keys []string, workers int, fn func(ctx context.Context, i int) (R, error), progress func(done, total int)) ([]R, error) {
	out := make([]R, len(keys))
	seen := make(map[string]int, len(keys))
	todo := make([]int, 0, len(keys))
	for i, key := range keys {
		if prev, dup := seen[key]; dup {
			return nil, fmt.Errorf("ckpt: points %d and %d share key %s (point key must include every result-determining parameter)", prev, i, key)
		}
		seen[key] = i
		if j != nil {
			if raw, ok := j.Lookup(key); ok {
				if err := json.Unmarshal(raw, &out[i]); err != nil {
					return nil, fmt.Errorf("ckpt: journaled result for point %d (key %s) does not decode: %w", i, key, err)
				}
				continue
			}
		}
		todo = append(todo, i)
	}
	var report func()
	if progress != nil {
		done := len(keys) - len(todo)
		var mu sync.Mutex
		progress(done, len(keys))
		report = func() {
			mu.Lock()
			done++
			progress(done, len(keys))
			mu.Unlock()
		}
	}
	_, _, err := runner.MapCtx(ctx, todo, workers, func(ctx context.Context, i int) (struct{}, error) {
		r, err := fn(ctx, i)
		if err != nil {
			return struct{}{}, err
		}
		out[i] = r // indices are distinct; the MapCtx wait is the barrier
		if j != nil {
			if err := j.Append(keys[i], r); err != nil {
				return struct{}{}, err
			}
		}
		if report != nil {
			report()
		}
		return struct{}{}, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
