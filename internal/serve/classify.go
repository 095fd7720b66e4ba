package serve

import (
	"context"
	"errors"
	"fmt"
	"syscall"

	"nocsprint/internal/runner"
)

// ErrTransient is the sentinel for failures worth retrying. Wrap an error
// with MarkTransient (or %w against this sentinel) to make the default
// classifier retry it.
var ErrTransient = errors.New("transient failure")

// MarkTransient wraps err so Transient classifies it as retryable.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrTransient, err)
}

// Transient is the default transient/permanent classifier for point-level
// retry. It is deliberately conservative — the simulator is deterministic,
// so most failures are permanent by construction:
//
//   - context cancellation and deadline expiry are never retried: they are
//     the caller ending the work, not the work failing;
//   - a recovered panic (runner.PointError) is a programming error, not a
//     transient condition;
//   - errors marked with ErrTransient are retried (fault-injection tests
//     and callers with domain knowledge use this);
//   - resource-exhaustion syscall errors (EAGAIN, EINTR, ENOMEM, EMFILE,
//     ENFILE, ENOSPC) from a point's own work are retried — they are the
//     one class a busy host genuinely clears on its own. A failed journal
//     append never reaches this classifier: runner.Run appends outside the
//     retry and fails the sweep, since the write may have left a torn
//     record;
//   - errors implementing Temporary() bool (net.Error and friends) are
//     classified by their own answer.
//
// Everything else is permanent.
func Transient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var pe *runner.PointError
	if errors.As(err, &pe) {
		return false
	}
	if errors.Is(err, ErrTransient) {
		return true
	}
	for _, errno := range []syscall.Errno{
		syscall.EAGAIN, syscall.EINTR, syscall.ENOMEM,
		syscall.EMFILE, syscall.ENFILE, syscall.ENOSPC,
	} {
		if errors.Is(err, errno) {
			return true
		}
	}
	var tmp interface{ Temporary() bool }
	if errors.As(err, &tmp) {
		return tmp.Temporary()
	}
	return false
}
