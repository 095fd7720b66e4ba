package noc

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"

	"nocsprint/internal/traffic"
)

// Traffic traces: a recorded sequence of packet injections that can be
// replayed deterministically — the trace-driven mode of booksim-class
// simulators. Traces serialise as JSON lines so they can be produced or
// consumed by external tools.

// TraceEvent is one packet injection.
type TraceEvent struct {
	// Cycle is the injection cycle (non-decreasing within a trace).
	Cycle int64 `json:"cycle"`
	// Src and Dst are mesh node ids.
	Src int `json:"src"`
	Dst int `json:"dst"`
	// Class is the message class (VC partition).
	Class int `json:"class,omitempty"`
}

// WriteTrace writes events to w as JSON lines.
func WriteTrace(w io.Writer, events []TraceEvent) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return fmt.Errorf("noc: writing trace event %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// WriteTraceFile writes events to the named file as JSON lines. WriteTrace
// buffers through bufio, so on a plain os.File a short write can surface only
// when the kernel's page cache drains at Close — an error path a caller that
// checks WriteTrace but discards Close silently loses. WriteTraceFile owns
// the whole file lifetime and joins the write/flush error with the Close
// error, so every failure mode is observable in the single returned error.
func WriteTraceFile(path string, events []TraceEvent) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("noc: creating trace file: %w", err)
	}
	if err := errors.Join(WriteTrace(f, events), f.Close()); err != nil {
		return fmt.Errorf("noc: writing trace file %s: %w", path, err)
	}
	return nil
}

// ReadTrace parses a JSON-lines trace and validates cycle monotonicity.
func ReadTrace(r io.Reader) ([]TraceEvent, error) {
	var events []TraceEvent
	dec := json.NewDecoder(r)
	var prev int64 = -1
	for {
		var ev TraceEvent
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("noc: parsing trace event %d: %w", len(events), err)
		}
		if ev.Cycle < prev {
			return nil, fmt.Errorf("noc: trace cycles not monotonic at event %d", len(events))
		}
		prev = ev.Cycle
		events = append(events, ev)
	}
	return events, nil
}

// GenerateTrace draws a Bernoulli injection trace over the endpoints of set
// with the given pattern and rate (flits/cycle/node), for the given number
// of cycles — offline generation of exactly the traffic RunSynthetic would
// inject with the same seed and packet length.
func GenerateTrace(set *traffic.Set, pattern traffic.Pattern, rate float64, packetLength int, cycles int, seed int64) ([]TraceEvent, error) {
	arrivals, err := traffic.NewBernoulli(set, pattern, rate, packetLength, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	var events []TraceEvent
	for c := 0; c < cycles; c++ {
		arrivals.Cycle(func(src, dst int) {
			events = append(events, TraceEvent{Cycle: int64(c), Src: src, Dst: dst})
		})
	}
	return events, nil
}

// TraceResult summarises a trace replay.
type TraceResult struct {
	// AvgLatency is the mean packet latency over all trace packets.
	AvgLatency float64
	// Packets is the number of packets replayed.
	Packets int64
	// Cycles is the total simulated cycle count including drain.
	Cycles int64
	// Drained reports whether every packet completed within the drain
	// budget.
	Drained bool
}

// ReplayTrace injects the trace into net at the recorded cycles (relative
// to the network's current cycle), then drains for at most drainCycles.
// All trace packets are measured. Drained reports whether every packet was
// ejected, checked after every drain step, so a drain finishing on its last
// permitted cycle counts. Traces come from external tools, so every event is
// checked against net before the first step: a negative or decreasing
// cycle, an endpoint outside the network or dark, or a class outside the
// network's is an error naming the event.
func ReplayTrace(net *Network, events []TraceEvent, drainCycles int) (TraceResult, error) {
	for i, ev := range events {
		var err error
		switch {
		case ev.Cycle < 0 || i > 0 && ev.Cycle < events[i-1].Cycle:
			err = fmt.Errorf("cycle %d: cycles must be non-negative and non-decreasing", ev.Cycle)
		case ev.Class < 0 || ev.Class >= net.cfg.classes():
			err = fmt.Errorf("class %d outside [0,%d)", ev.Class, net.cfg.classes())
		default:
			err = net.endpointErr(ev.Src, ev.Dst)
		}
		if err != nil {
			return TraceResult{}, fmt.Errorf("noc: trace event %d: %w", i, err)
		}
	}
	start := net.Cycle()
	idx := 0
	enqueue := func() error {
		for rel := net.Cycle() - start; idx < len(events) && events[idx].Cycle == rel; idx++ {
			ev := events[idx]
			net.EnqueuePacket(ev.Src, ev.Dst, ev.Class, net.cfg.PacketLength)
		}
		return nil
	}
	// Neither phase can fail: no context, and enqueue never errs. The events
	// were checked above, so every one is enqueued by the step at its cycle
	// and the injection phase needs no budget of its own.
	net.SetMeasuring(true)
	_, _ = net.RunUntil(nil, math.MaxInt, enqueue, func() bool { return idx == len(events) })
	net.SetMeasuring(false)
	drained, _ := net.RunUntil(nil, drainCycles, nil, func() bool {
		created, ejected := net.MeasuredCounts()
		return ejected == created
	})
	s := net.Stats()
	res := TraceResult{
		Packets: s.MeasuredEjected,
		Cycles:  s.Cycles,
		Drained: drained,
	}
	res.AvgLatency, _ = s.AvgLatency()
	return res, nil
}
