package core

import (
	"context"

	"nocsprint/internal/ckpt"
	"nocsprint/internal/runner"
)

// Sweep checkpointing: every parallel sweep driver funnels its points
// through ckpt.Run with a canonical per-point key, so a sweep handed a
// NetSimParams.Journal survives interrupts — completed points are fsynced
// as they finish and skipped on resume — and a resumed sweep's output is
// bit-identical to an uninterrupted run.

// pointKey builds the canonical journal key of one sweep point: the driver
// name, the configuration the point runs under, the simulation windows and
// base seed, and the point's own coordinates. Everything that determines
// the point's result must be in here — a stale journal then can never
// satisfy a changed sweep, because changed parameters change every key.
// Workers, Check, Reference, Obs, and Progress are deliberately excluded:
// worker count, the observational invariant checker, the reference-stepper
// switch, the telemetry recorder, and the progress callback are all proven
// (by the determinism and zero-drift equivalence tests) not to affect
// results, so a checkpoint taken at one setting resumes under any other.
// Note the flip side for Obs: points satisfied from the journal never rerun,
// so a resumed sweep only produces collectors for freshly computed points.
func pointKey(driver string, cfg, point any, sim NetSimParams) (string, error) {
	return ckpt.Key(struct {
		Driver                 string
		Config                 any
		Warmup, Measure, Drain int
		Seed                   int64
		Point                  any
	}{driver, cfg, sim.Warmup, sim.Measure, sim.Drain, sim.Seed, point})
}

// runPoints is the single funnel every sweep driver pushes its points
// through: journal-aware execution (skip journaled points, fsync fresh
// ones) over the cancellable worker pool, with the point-level retry
// policy applied when one is configured. Retry wraps the point function
// inside the pool worker, so the pool's panic recovery stays outermost — a
// recovered panic reaches the retry classifier as a runner.PointError (and
// sane classifiers reject it as permanent), while transient errors are
// re-attempted without the journal or the pool ever seeing them.
func runPoints[R any](sim NetSimParams, keys []string, fn func(ctx context.Context, i int) (R, error)) ([]R, error) {
	if p := sim.Retry; p != nil {
		inner := fn
		fn = func(ctx context.Context, i int) (R, error) {
			return runner.Retry(ctx, *p, func(ctx context.Context) (R, error) {
				return inner(ctx, i)
			})
		}
	}
	return ckpt.Run(sim.sweepCtx(), sim.Journal, keys, sim.Workers, fn, sim.Progress)
}

// sweep runs fn over points through runPoints, keying each point with
// pointKey(driver, cfg, point, sim). The point value is the key's
// coordinates, so a point type's exported fields and their order are part
// of the checkpoint format.
func sweep[P, R any](driver string, cfg any, sim NetSimParams, points []P, fn func(P) (R, error)) ([]R, error) {
	return sweepKeyed(sim, points, func(pt P) (string, error) { return pointKey(driver, cfg, pt, sim) }, fn)
}

// sweepKeyed is sweep with the key derivation left to the caller, for the
// drivers whose keys deliberately omit the simulation windows.
func sweepKeyed[P, R any](sim NetSimParams, points []P, key func(P) (string, error), fn func(P) (R, error)) ([]R, error) {
	keys := make([]string, len(points))
	for i, pt := range points {
		var err error
		if keys[i], err = key(pt); err != nil {
			return nil, err
		}
	}
	return runPoints(sim, keys, func(_ context.Context, i int) (R, error) { return fn(points[i]) })
}
