// Package serve turns the one-shot sweep library into a long-running,
// failure-tolerant job service: an HTTP API over a bounded job queue with
// admission control, per-job deadlines wired into the two-level
// cancellation contexts, panic isolation via the worker pool's PointError
// recovery, and crash-safe restart — every job journals through
// internal/ckpt under a state directory, so a kill -9 and restart resumes
// each incomplete job from its checkpoint and produces byte-identical
// results.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"nocsprint/internal/core"
)

// Duration is a time.Duration that marshals to and from JSON duration
// strings ("90s", "2m30s"), so curl-side specs stay readable.
type Duration time.Duration

// Std returns the value as a time.Duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

func (d Duration) String() string { return time.Duration(d).String() }

func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("want a duration string like \"90s\", got %s", b)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("invalid duration %q: %v", s, err)
	}
	*d = Duration(v)
	return nil
}

// JobSpec is the sweep specification submitted to POST /v1/jobs. Unknown
// fields are rejected at decode time with an error naming the field.
type JobSpec struct {
	// Experiment selects the sweep to run: a name core.LookupExperiment
	// answers (core.ExperimentNames lists them).
	Experiment string `json:"experiment"`
	// Fast shrinks simulation windows for smoke-sized jobs, exactly like
	// the CLI's -fast flag.
	Fast bool `json:"fast,omitempty"`
	// Check attaches the runtime invariant checker to every simulation.
	Check bool `json:"check,omitempty"`
	// Workers is the sweep fan-out (0 = all cores, 1 = serial).
	Workers int `json:"workers,omitempty"`
	// Seed is the base RNG seed threaded into every sweep point.
	Seed int64 `json:"seed,omitempty"`
	// Timeout is the per-job deadline: when it elapses, the job's sweep
	// context is cancelled (in-flight points finish and are journaled) and
	// after a grace period its abort context stops points mid-cycle-loop.
	// Zero means no deadline beyond the server's default.
	Timeout Duration `json:"timeout,omitempty"`
	// Obs attaches cycle-sampled telemetry collectors and writes per-point
	// JSONL/CSV files under the job's state directory.
	Obs bool `json:"obs,omitempty"`
}

// ParseSpec decodes and validates one JobSpec from r. Decoding is strict:
// unknown fields, malformed values, and trailing data are all rejected with
// errors naming the offending field, so a typo in a submission can never
// silently select default behaviour.
func ParseSpec(r io.Reader) (JobSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var spec JobSpec
	if err := dec.Decode(&spec); err != nil {
		return JobSpec{}, specDecodeError(err)
	}
	if dec.More() {
		return JobSpec{}, errors.New("spec: trailing data after the JSON object")
	}
	if err := spec.Validate(); err != nil {
		return JobSpec{}, err
	}
	return spec, nil
}

// specDecodeError rewrites encoding/json's errors into field-naming spec
// errors.
func specDecodeError(err error) error {
	msg := err.Error()
	if rest, ok := strings.CutPrefix(msg, `json: unknown field `); ok {
		return fmt.Errorf("spec: unknown field %s (known fields: experiment, fast, check, workers, seed, timeout, obs)", rest)
	}
	var ute *json.UnmarshalTypeError
	if errors.As(err, &ute) && ute.Field != "" {
		return fmt.Errorf("spec: field %q: want %s, got %s", ute.Field, ute.Type, ute.Value)
	}
	return fmt.Errorf("spec: %w", err)
}

// Validate checks every field, naming the offending field in each error.
func (s JobSpec) Validate() error {
	if s.Experiment == "" {
		return errors.New(`spec: field "experiment": required`)
	}
	if _, ok := core.LookupExperiment(s.Experiment); !ok {
		return fmt.Errorf("spec: field %q: unknown experiment %q (supported: %s)",
			"experiment", s.Experiment, strings.Join(core.ExperimentNames(), ", "))
	}
	if s.Workers < 0 {
		return fmt.Errorf("spec: field %q: must be >= 0, got %d", "workers", s.Workers)
	}
	if s.Timeout < 0 {
		return fmt.Errorf("spec: field %q: must be >= 0, got %v", "timeout", s.Timeout)
	}
	return nil
}
