package core

import (
	"nocsprint/internal/ckpt"
	"nocsprint/internal/runner"
)

// Sweep checkpointing: every parallel sweep driver funnels its points
// through runner.Run with a canonical per-point key, so a sweep handed a
// NetSimParams.Journal survives interrupts — completed points are fsynced
// as they finish and skipped on resume — and a resumed sweep's output is
// bit-identical to an uninterrupted run.

// pointKey builds the canonical journal key of one sweep point: the driver
// name, the configuration the point runs under, the simulation windows as
// given and the base seed, and the point's own coordinates. Everything that
// determines the point's result must be in here — a stale journal then can
// never satisfy a changed sweep, because changed parameters change every
// key.
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

// sweep runs fn over points through runner.Run, keying each point with
// pointKey(driver, cfg, point, sim). The point value is the key's
// coordinates, so a point type's exported fields and their order are part
// of the checkpoint format.
func sweep[P, R any](driver string, cfg any, sim NetSimParams, points []P, fn func(P) (R, error)) ([]R, error) {
	keys := make([]string, len(points))
	for i, pt := range points {
		var err error
		if keys[i], err = pointKey(driver, cfg, pt, sim); err != nil {
			return nil, err
		}
	}
	return runner.Run(sim.Ctx, sim.Journal, keys, sim.Workers, sim.Progress,
		func(i int) (R, error) { return fn(points[i]) })
}
