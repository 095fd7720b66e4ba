package serve

import (
	"context"
	"errors"
	"fmt"
	"syscall"
	"testing"

	"nocsprint/internal/core"
	"nocsprint/internal/runner"
)

type tempErr struct{ temp bool }

func (e tempErr) Error() string   { return "temp-classified error" }
func (e tempErr) Temporary() bool { return e.temp }

func TestTransientClassifier(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"plain error", errors.New("boom"), false},
		{"context cancelled", context.Canceled, false},
		{"wrapped cancellation", fmt.Errorf("sweep: %w", context.Canceled), false},
		{"deadline", context.DeadlineExceeded, false},
		{"recovered panic", &runner.PointError{Index: 3, Value: "v"}, false},
		{"wrapped panic", fmt.Errorf("point: %w", &runner.PointError{Index: 1}), false},
		{"marked transient", MarkTransient(errors.New("io pressure")), true},
		{"sentinel directly", ErrTransient, true},
		{"eagain", fmt.Errorf("read: %w", syscall.EAGAIN), true},
		{"enomem", syscall.ENOMEM, true},
		{"enospc on fsync", fmt.Errorf("journal: %w", syscall.ENOSPC), true},
		{"eperm is permanent", syscall.EPERM, false},
		{"temporary true", tempErr{temp: true}, true},
		{"temporary false", tempErr{temp: false}, false},
		// A panic marked transient stays permanent: the PointError check
		// runs before the sentinel check.
		{"transient-marked panic", MarkTransient(&runner.PointError{Index: 0}), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Transient(tc.err); got != tc.want {
				t.Errorf("Transient(%v) = %v, want %v", tc.err, got, tc.want)
			}
		})
	}
}

func TestMarkTransientNil(t *testing.T) {
	if MarkTransient(nil) != nil {
		t.Error("MarkTransient(nil) != nil")
	}
	if !errors.Is(MarkTransient(errors.New("x")), ErrTransient) {
		t.Error("MarkTransient result does not match the sentinel")
	}
}

// TestAbortCancelsInFlightPoints: Abort (second signal / drain timeout)
// cancels the point-level context so even a sweep ignoring the graceful
// context stops.
func TestAbortCancelsInFlightPoints(t *testing.T) {
	started := make(chan struct{})
	srv, err := New(Config{
		StateDir: t.TempDir(),
		Run: func(_ JobSpec, sim core.NetSimParams) (any, error) {
			close(started)
			<-sim.Abort.Done() // ignores the graceful sim.Ctx on purpose
			return nil, fmt.Errorf("aborted mid-point: %w", sim.Abort.Err())
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	job, err := srv.Submit(JobSpec{Experiment: "fig11"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	srv.Abort()
	defer srv.Close()
	waitFor(t, func() bool {
		v, ok := srv.Job(job.ID)
		return ok && v.State != StateRunning
	}, "the wedged job to stop after Abort")
}
