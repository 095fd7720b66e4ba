package runner

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	for _, n := range []int{1, 2, 7, 64} {
		if got := Workers(n); got != n {
			t.Errorf("Workers(%d) = %d", n, got)
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out, done, err := MapCtx(context.Background(), nil, 4, func(context.Context, int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 || len(done) != 0 {
		t.Fatalf("MapCtx(nil) = %v, %v, %v", out, done, err)
	}
}

func TestMapPreservesOrder(t *testing.T) {
	points := make([]int, 100)
	for i := range points {
		points[i] = i
	}
	for _, workers := range []int{1, 2, 8, 200} {
		out, _, err := MapCtx(context.Background(), points, workers, func(_ context.Context, p int) (int, error) { return p * p, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range out {
			if r != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, r, i*i)
			}
		}
	}
}

// TestMapDeterministic asserts the core guarantee: a seeded pseudo-random
// computation per point yields identical results at any worker count.
func TestMapDeterministic(t *testing.T) {
	points := make([]int64, 64)
	for i := range points {
		points[i] = int64(i)
	}
	fn := func(_ context.Context, seed int64) (float64, error) {
		rng := rand.New(rand.NewSource(seed))
		var s float64
		for i := 0; i < 1000; i++ {
			s += rng.Float64()
		}
		return s, nil
	}
	serial, _, err := MapCtx(context.Background(), points, 1, fn)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 8} {
		parallel, _, err := MapCtx(context.Background(), points, workers, fn)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("workers=%d: results differ from serial", workers)
		}
	}
}

func TestMapReportsLowestIndexedError(t *testing.T) {
	points := make([]int, 50)
	for i := range points {
		points[i] = i
	}
	fail := map[int]bool{17: true, 31: true, 44: true}
	for _, workers := range []int{1, 4} {
		_, _, err := MapCtx(context.Background(), points, workers, func(_ context.Context, p int) (int, error) {
			if fail[p] {
				return 0, fmt.Errorf("boom at %d", p)
			}
			return p, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: no error", workers)
		}
		if !strings.Contains(err.Error(), "point 17") || !strings.Contains(err.Error(), "boom at 17") {
			t.Errorf("workers=%d: err = %v, want lowest-indexed point 17", workers, err)
		}
	}
}

func TestMapErrorWrapping(t *testing.T) {
	sentinel := errors.New("sentinel")
	_, _, err := MapCtx(context.Background(), []int{0}, 1, func(context.Context, int) (int, error) { return 0, sentinel })
	if !errors.Is(err, sentinel) {
		t.Errorf("error %v does not wrap sentinel", err)
	}
}

// TestMapStopsClaimingAfterFailure checks that a failure prevents unclaimed
// points from starting (bounded waste on expensive sweeps).
func TestMapStopsClaimingAfterFailure(t *testing.T) {
	const n = 10_000
	points := make([]int, n)
	var ran atomic.Int64
	_, _, err := MapCtx(context.Background(), points, 2, func(context.Context, int) (int, error) {
		ran.Add(1)
		return 0, errors.New("fail fast")
	})
	if err == nil {
		t.Fatal("no error")
	}
	if got := ran.Load(); got >= n {
		t.Errorf("all %d points ran despite early failure", got)
	}
}

func TestMapSerialRunsOnCallingGoroutine(t *testing.T) {
	// workers=1 must not spawn goroutines: fn observes the caller's
	// goroutine id. (Panics no longer distinguish the paths — they are
	// recovered into *PointError on both; see panic_test.go.)
	gid := func() string {
		buf := make([]byte, 64)
		n := runtime.Stack(buf, false)
		return strings.Fields(string(buf[:n]))[1] // "goroutine <id> [...]"
	}
	caller := gid()
	var inFn string
	if _, _, err := MapCtx(context.Background(), []int{1}, 1, func(context.Context, int) (int, error) { inFn = gid(); return 0, nil }); err != nil {
		t.Fatal(err)
	}
	if inFn != caller {
		t.Errorf("serial MapCtx ran fn on goroutine %s, caller is %s", inFn, caller)
	}
}
