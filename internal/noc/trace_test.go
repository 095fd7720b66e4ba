package noc

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"nocsprint/internal/routing"
	"nocsprint/internal/sprint"
	"nocsprint/internal/topo"
	"nocsprint/internal/traffic"
)

func TestTraceRoundTrip(t *testing.T) {
	events := []TraceEvent{
		{Cycle: 0, Src: 0, Dst: 5},
		{Cycle: 0, Src: 3, Dst: 9, Class: 1},
		{Cycle: 7, Src: 15, Dst: 0},
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("%d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d: %+v != %+v", i, got[i], events[i])
		}
	}
}

// failingWriter accepts writes until fail, then errors — it models a device
// that runs out of space after the bufio buffer has absorbed the early data,
// so the failure only surfaces at Flush time.
type failingWriter struct {
	n    int
	fail int
}

var errDeviceFull = errors.New("device full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.n+len(p) > w.fail {
		short := w.fail - w.n
		if short < 0 {
			short = 0
		}
		w.n = w.fail
		return short, errDeviceFull
	}
	w.n += len(p)
	return len(p), nil
}

// TestWriteTraceSurfacesFlushError pins the regression: a short write that
// the bufio layer only discovers at Flush must propagate out of WriteTrace,
// not vanish.
func TestWriteTraceSurfacesFlushError(t *testing.T) {
	events := make([]TraceEvent, 64)
	for i := range events {
		events[i] = TraceEvent{Cycle: int64(i), Src: 0, Dst: 1}
	}
	// Fail after 10 bytes: far less than one bufio buffer, so every Encode
	// succeeds into the buffer and only Flush hits the device.
	err := WriteTrace(&failingWriter{fail: 10}, events)
	if !errors.Is(err, errDeviceFull) {
		t.Fatalf("WriteTrace error = %v, want wrapped errDeviceFull", err)
	}
}

func TestWriteTraceFileRoundTrip(t *testing.T) {
	events := []TraceEvent{{Cycle: 0, Src: 1, Dst: 2}, {Cycle: 3, Src: 2, Dst: 1, Class: 1}}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := WriteTraceFile(path, events); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) || got[0] != events[0] || got[1] != events[1] {
		t.Fatalf("round trip mismatch: %+v != %+v", got, events)
	}
}

func TestWriteTraceFileSurfacesDeviceErrors(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil || runtime.GOOS != "linux" {
		t.Skip("needs /dev/full")
	}
	events := []TraceEvent{{Cycle: 0, Src: 0, Dst: 1}}
	if err := WriteTraceFile("/dev/full", events); err == nil {
		t.Fatal("write to /dev/full reported success")
	}
	if err := WriteTraceFile(filepath.Join(t.TempDir(), "no", "such", "dir", "t.jsonl"), events); err == nil {
		t.Fatal("create under missing directory reported success")
	}
}

func TestReadTraceRejectsGarbageAndDisorder(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("not json\n")); err == nil {
		t.Error("garbage accepted")
	}
	disorder := `{"cycle":5,"src":0,"dst":1}
{"cycle":2,"src":0,"dst":1}
`
	if _, err := ReadTrace(strings.NewReader(disorder)); err == nil {
		t.Error("non-monotonic trace accepted")
	}
}

func TestGenerateTraceValidation(t *testing.T) {
	set := traffic.NewSet(topo.AllNodes(16))
	if _, err := GenerateTrace(set, traffic.NewUniform(4), 0.1, 5, 100, 1); err == nil {
		t.Error("mismatched pattern accepted")
	}
	if _, err := GenerateTrace(set, traffic.NewUniform(16), 0.1, 0, 100, 1); err == nil {
		t.Error("zero packet length accepted")
	}
	if _, err := GenerateTrace(set, traffic.NewUniform(16), 99, 5, 100, 1); err == nil {
		t.Error("over-unity rate accepted")
	}
	if _, err := GenerateTrace(set, traffic.NewUniform(16), math.NaN(), 5, 100, 1); err == nil {
		t.Error("NaN rate accepted")
	}
}

// TestReplayMatchesLiveRun pins determinism: generating a trace offline and
// replaying it produces exactly the injections RunSynthetic performs with
// the same seed, so the average latency matches exactly.
func TestReplayMatchesLiveRun(t *testing.T) {
	cfg := DefaultConfig()
	m := topo.NewMesh(4, 4)
	set := traffic.NewSet(topo.AllNodes(16))
	pattern := traffic.NewUniform(16)
	const (
		rate   = 0.15
		cycles = 2000
		seed   = 55
	)

	// Live: measure from cycle 0 with no warmup so the windows align.
	live, err := New(cfg, routing.NewDOR(m), nil)
	if err != nil {
		t.Fatal(err)
	}
	liveRes, err := RunSynthetic(live, set, pattern, SimParams{
		InjectionRate: rate, WarmupCycles: 0, MeasureCycles: cycles, DrainCycles: 30000, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Offline trace with the same seed, replayed on a fresh network.
	events, err := GenerateTrace(set, pattern, rate, cfg.PacketLength, cycles, seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("empty trace")
	}
	replayNet, err := New(cfg, routing.NewDOR(m), nil)
	if err != nil {
		t.Fatal(err)
	}
	repRes, err := ReplayTrace(replayNet, events, 30000)
	if err != nil {
		t.Fatal(err)
	}
	if !repRes.Drained {
		t.Fatal("replay did not drain")
	}
	if repRes.Packets != liveRes.MeasuredPackets {
		t.Fatalf("replay %d packets, live %d", repRes.Packets, liveRes.MeasuredPackets)
	}
	if repRes.AvgLatency != liveRes.AvgLatency {
		t.Fatalf("replay latency %v, live %v", repRes.AvgLatency, liveRes.AvgLatency)
	}
}

func TestReplayOnSprintRegion(t *testing.T) {
	cfg := DefaultConfig()
	m := topo.NewMesh(4, 4)
	region := sprintRegion(t, m, 6)
	set := traffic.NewSet(region.ActiveNodes())
	events, err := GenerateTrace(set, traffic.NewUniform(6), 0.1, cfg.PacketLength, 1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	net, err := New(cfg, routing.NewCDOR(region), region.ActiveNodes())
	if err != nil {
		t.Fatal(err)
	}
	res, err := ReplayTrace(net, events, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Drained || res.Packets != int64(len(events)) {
		t.Fatalf("replay incomplete: %+v (want %d packets)", res, len(events))
	}
}

// TestReplayExactDrainBudget: the drain check runs after every step, so a
// replay whose last packet ejects on the final permitted drain cycle is
// drained, and one cycle less is not. One packet 0→15 on a 4×4 DOR mesh
// needs 39 drain cycles after its injection step.
func TestReplayExactDrainBudget(t *testing.T) {
	cfg := DefaultConfig()
	m := topo.NewMesh(4, 4)
	events := []TraceEvent{{Cycle: 0, Src: 0, Dst: 15}}
	for _, c := range []struct {
		budget  int
		drained bool
	}{{39, true}, {38, false}} {
		net, err := New(cfg, routing.NewDOR(m), nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ReplayTrace(net, events, c.budget)
		if err != nil {
			t.Fatal(err)
		}
		if res.Drained != c.drained {
			t.Errorf("drain budget %d: Drained = %v, want %v (%+v)", c.budget, res.Drained, c.drained, res)
		}
	}
}

// TestReplayEmptyTrace: an empty trace has nothing to drain, so even a zero
// budget reports drained without stepping.
func TestReplayEmptyTrace(t *testing.T) {
	net, err := New(DefaultConfig(), routing.NewDOR(topo.NewMesh(4, 4)), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ReplayTrace(net, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Drained || res.Cycles != 0 {
		t.Errorf("empty trace: %+v, want drained at cycle 0", res)
	}
}

// TestReplayTraceRejectsBadCycles: a negative or decreasing cycle is refused
// before the network steps.
func TestReplayTraceRejectsBadCycles(t *testing.T) {
	for name, events := range map[string][]TraceEvent{
		"negative":   {{Cycle: -1, Src: 0, Dst: 1}},
		"decreasing": {{Cycle: 5, Src: 0, Dst: 1}, {Cycle: 2, Src: 1, Dst: 0}},
	} {
		net, err := New(DefaultConfig(), routing.NewDOR(topo.NewMesh(4, 4)), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ReplayTrace(net, events, 100); err == nil {
			t.Errorf("%s trace accepted", name)
		}
		if net.Cycle() != 0 {
			t.Errorf("%s trace stepped the network to cycle %d", name, net.Cycle())
		}
	}
}

// TestReplayTraceRejectsBadEvents: a trace is external input, so an event the
// network cannot carry is an error naming it, found before the first step,
// not a panic inside the enqueue.
func TestReplayTraceRejectsBadEvents(t *testing.T) {
	good := TraceEvent{Cycle: 0, Src: 0, Dst: 1}
	for _, c := range []struct {
		name string
		bad  TraceEvent
		want string
	}{
		{"src out of range", TraceEvent{Cycle: 0, Src: 99, Dst: 1}, "outside"},
		{"negative dst", TraceEvent{Cycle: 1, Src: 0, Dst: -1}, "outside"},
		{"dark endpoint", TraceEvent{Cycle: 1, Src: 0, Dst: 15}, "gated node 15"},
		{"bad class", TraceEvent{Cycle: 1, Src: 0, Dst: 1, Class: 3}, "class 3"},
	} {
		cfg := DefaultConfig()
		r := sprint.NewRegion(topo.NewMesh(cfg.Width, cfg.Height), 0, 4, sprint.Euclidean)
		net, err := New(cfg, routing.NewCDOR(r), r.ActiveNodes())
		if err != nil {
			t.Fatal(err)
		}
		_, err = ReplayTrace(net, []TraceEvent{good, c.bad}, 100)
		if err == nil || !strings.Contains(err.Error(), "event 1") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one naming event 1 and %q", c.name, err, c.want)
		}
		if net.Cycle() != 0 || net.Stats().PacketsCreated != 0 {
			t.Errorf("%s: replay stepped to cycle %d and created %d packets before refusing",
				c.name, net.Cycle(), net.Stats().PacketsCreated)
		}
	}
}
