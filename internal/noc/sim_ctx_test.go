package noc

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"nocsprint/internal/routing"
	"nocsprint/internal/topo"
	"nocsprint/internal/traffic"
)

func newCtxTestNet(t *testing.T) (*Network, *traffic.Set) {
	t.Helper()
	cfg := DefaultConfig()
	m := topo.NewMesh(cfg.Width, cfg.Height)
	net, err := New(cfg, routing.NewDOR(m), nil)
	if err != nil {
		t.Fatal(err)
	}
	return net, traffic.NewSet(topo.AllNodes(cfg.Nodes()))
}

func TestRunSyntheticPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	net, set := newCtxTestNet(t)
	p := drainTestParams(30000)
	p.Ctx = ctx
	res, err := RunSynthetic(net, set, traffic.NewUniform(set.Size()), p)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "warmup") {
		t.Errorf("err %q does not name the cancelled phase", err)
	}
	if res != (Result{}) {
		t.Errorf("cancelled run returned a non-zero result: %+v", res)
	}
	if net.Cycle() != 0 {
		t.Errorf("cancelled run stepped %d cycles", net.Cycle())
	}
}

// TestRunSyntheticCtxZeroDrift pins the observational guarantee: attaching a
// live (never-cancelled) context changes nothing about the simulation.
func TestRunSyntheticCtxZeroDrift(t *testing.T) {
	run := func(ctx context.Context) Result {
		net, set := newCtxTestNet(t)
		p := drainTestParams(30000)
		p.Ctx = ctx
		res, err := RunSynthetic(net, set, traffic.NewUniform(set.Size()), p)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	bare := run(nil)
	withCtx := run(context.Background())
	if !reflect.DeepEqual(bare, withCtx) {
		t.Errorf("results drift with a context attached:\nbare    %+v\nwithCtx %+v", bare, withCtx)
	}
}

// TestRunSyntheticCancelMidMeasurement cancels from inside the cycle loop
// (via a context hooked to the network's own progress) and checks the error
// names the phase and the run stopped at cycle granularity.
func TestRunSyntheticCancelMidMeasurement(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	net, set := newCtxTestNet(t)
	p := drainTestParams(30000)
	// A goroutine-timed cancel would be racy; countdownCtx instead trips
	// deterministically on the Nth poll of Err, i.e. at a known cycle.
	n := 0
	watch := &countdownCtx{Context: ctx, cancel: cancel, after: p.WarmupCycles + 10, n: &n}
	p.Ctx = watch
	_, err := RunSynthetic(net, set, traffic.NewUniform(set.Size()), p)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "measurement") {
		t.Errorf("err %q does not name the measurement phase", err)
	}
	if got, want := net.Cycle(), int64(p.WarmupCycles+10); got != want {
		t.Errorf("run stopped at cycle %d, want exactly %d (cycle-granular cancellation)", got, want)
	}
}

// countdownCtx cancels its parent after its Err method has been polled a
// fixed number of times — a deterministic stand-in for an external interrupt
// landing mid-run.
type countdownCtx struct {
	context.Context
	cancel context.CancelFunc
	after  int
	n      *int
}

func (c *countdownCtx) Err() error {
	if *c.n >= c.after {
		c.cancel()
	}
	*c.n++
	return c.Context.Err()
}

func TestDrainWithBudgetCtxCancelled(t *testing.T) {
	net, _ := newCtxTestNet(t)
	// Put traffic in flight so the drain has work to do.
	for i := 0; i < 8; i++ {
		net.Enqueue(0, 15)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := net.DrainWithBudgetCtx(ctx, 1000)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "drain cancelled") {
		t.Errorf("err %q lacks drain context", err)
	}
	// A nil context must never cancel: same network drains fine.
	if err := net.DrainWithBudgetCtx(nil, 100000); err != nil {
		t.Fatalf("nil-ctx drain failed: %v", err)
	}
}

// TestRunUntilContract pins the loop's order: done on entry and after every
// step, each before every step, and an error from each ends the run
// unstepped and unwrapped.
func TestRunUntilContract(t *testing.T) {
	net, _ := newCtxTestNet(t)
	if ok, err := net.RunUntil(nil, 10, nil, func() bool { return true }); !ok || err != nil || net.Cycle() != 0 {
		t.Fatalf("done on entry: ok=%v err=%v cycle=%d, want true at cycle 0", ok, err, net.Cycle())
	}

	var seen []int64
	each := func() error {
		seen = append(seen, net.Cycle())
		return nil
	}
	ok, err := net.RunUntil(nil, 5, each, func() bool { return net.Cycle() == 5 })
	if !ok || err != nil || net.Cycle() != 5 {
		t.Fatalf("done on the last step: ok=%v err=%v cycle=%d, want true at cycle 5", ok, err, net.Cycle())
	}
	if !reflect.DeepEqual(seen, []int64{0, 1, 2, 3, 4}) {
		t.Errorf("each saw cycles %v, want 0..4 (once before every step)", seen)
	}

	if ok, err := net.RunUntil(nil, 3, nil, nil); ok || err != nil || net.Cycle() != 8 {
		t.Fatalf("nil done: ok=%v err=%v cycle=%d, want false at cycle 8", ok, err, net.Cycle())
	}

	stop := errors.New("stop")
	ok, err = net.RunUntil(nil, 10, func() error {
		if net.Cycle() == 10 {
			return stop
		}
		return nil
	}, nil)
	if ok || err != stop || net.Cycle() != 10 {
		t.Fatalf("each error: ok=%v err=%v cycle=%d, want the error itself at cycle 10", ok, err, net.Cycle())
	}
}
