package serve

import (
	"context"
	"encoding/json"
	"time"
)

// JobState is a job's position in its lifecycle.
type JobState string

const (
	// StateQueued: admitted, persisted, waiting for an executor. Jobs
	// recovered after a crash or drain re-enter this state and resume
	// from their checkpoint journal.
	StateQueued JobState = "queued"
	// StateRunning: an executor is computing sweep points (journaling each
	// as it completes). Held in memory only: the record on disk still says
	// queued, which is what a restart would make of it anyway.
	StateRunning JobState = "running"
	// StateDone: finished; the result is persisted in the job record and
	// served.
	StateDone JobState = "done"
	// StateFailed: finished with an error, a recovered point panic
	// included, or an expired deadline.
	StateFailed JobState = "failed"
	// StateCancelled: removed by DELETE before completing.
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job is one submitted sweep, and the JSON shape GET /v1/jobs/{id} serves.
// The exported fields are its durable record: one atomic snapshot in the
// job's state directory, rewritten when the job is admitted, checkpointed
// by a drain, or reaches a terminal state, so a restarted server
// reconstructs the full job table.
type Job struct {
	ID      string     `json:"id"`
	Spec    JobSpec    `json:"spec"`
	State   JobState   `json:"state"`
	Error   string     `json:"error,omitempty"`
	Created time.Time  `json:"created"`
	Started *time.Time `json:"started,omitempty"`
	Ended   *time.Time `json:"ended,omitempty"`
	// Result is the raw result bytes, set with the done state and written
	// in the same snapshot, so a done record always carries its result.
	// Declared last: field order fixes the bytes GET /v1/jobs/{id} serves.
	Result json.RawMessage `json:"result,omitempty"`

	// Runtime-only fields, not persisted.
	cancelRun       context.CancelFunc // cancels the running sweep context
	cancelRequested bool               // DELETE arrived while running
}
