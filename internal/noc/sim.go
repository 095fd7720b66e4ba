package noc

import (
	"context"
	"fmt"
	"math/rand"

	"nocsprint/internal/traffic"
)

// SimParams controls an open-loop synthetic-traffic simulation run.
type SimParams struct {
	// InjectionRate is the offered load in flits/cycle/node over the
	// traffic endpoints (the paper sweeps this in Fig. 11).
	InjectionRate float64
	// WarmupCycles run before measurement starts.
	WarmupCycles int
	// MeasureCycles is the length of the measurement window.
	MeasureCycles int
	// DrainCycles bounds the post-measurement drain; if measured packets
	// remain in flight afterwards the run is reported saturated.
	DrainCycles int
	// Seed drives packet generation (and nothing else), making runs
	// reproducible.
	Seed int64
	// Ctx, when non-nil, cancels the run: RunUntil polls it once before
	// every step, so cancellation is observed at cycle granularity and
	// never splits a Step — the network is left consistent (if
	// unfinished). A cancelled run returns an error satisfying
	// errors.Is(err, Ctx.Err()) and a zero Result. The poll never perturbs
	// simulation state, so results are bit-identical with or without a
	// context attached.
	Ctx context.Context
	// StopWhenSaturated ends a run as its measurement window closes when
	// the source backlog's growth over the window already marks it
	// Saturated, so no drain can change the verdict. Such a run returns
	// Saturated and Cycles (warmup + measure) only: its latency,
	// throughput, packet count, events and window are zero. Every other
	// run, and every run with the field unset, is unchanged. Set it when
	// only the verdict of a loaded run is read.
	StopWhenSaturated bool
}

// Result summarises one synthetic-traffic run.
type Result struct {
	// AvgLatency is the mean measured packet latency in cycles, including
	// source queueing. Valid only when Saturated is false or packets
	// completed anyway.
	AvgLatency float64
	// AvgNetLatency is the mean in-network latency (injection to ejection).
	AvgNetLatency float64
	// ThroughputFlits is accepted traffic in flits/cycle/endpoint during
	// the measurement window.
	ThroughputFlits float64
	// Saturated reports offered load beyond saturation: the source backlog
	// grew across the measurement window, or the network failed to drain
	// measured packets within the drain budget.
	Saturated bool
	// MeasuredPackets is the number of packets whose latency was recorded.
	MeasuredPackets int64
	// Cycles is the total simulated cycle count.
	Cycles int64
	// Events holds the micro-event deltas over the measurement window plus
	// drain, for power estimation.
	Events Events
	// MeasureWindow is the cycle span events were accumulated over.
	MeasureWindow int64
}

// RunSynthetic drives net with Bernoulli packet arrivals (traffic.Bernoulli):
// each endpoint in set independently generates a packet with probability
// rate/packetLength per cycle, destinations drawn from pattern over set. The
// function runs warmup, measurement, and drain phases, each one RunUntil
// call, and returns measurement-window statistics. A window may be zero
// cycles long but not negative. With p.StopWhenSaturated a run whose
// backlog growth is already a saturation verdict skips the drain.
func RunSynthetic(net *Network, set *traffic.Set, pattern traffic.Pattern, p SimParams) (Result, error) {
	if p.WarmupCycles < 0 || p.MeasureCycles < 0 || p.DrainCycles < 0 {
		return Result{}, fmt.Errorf("noc: negative window (warmup %d, measure %d, drain %d cycles)",
			p.WarmupCycles, p.MeasureCycles, p.DrainCycles)
	}
	arrivals, err := traffic.NewBernoulli(set, pattern, p.InjectionRate, net.Config().PacketLength,
		rand.New(rand.NewSource(p.Seed)))
	if err != nil {
		return Result{}, err
	}
	enqueue := func(src, dst int) { net.Enqueue(src, dst) }
	inject := func() error {
		arrivals.Cycle(enqueue)
		return nil
	}

	if _, err := net.RunUntil(p.Ctx, p.WarmupCycles, inject, nil); err != nil {
		return Result{}, fmt.Errorf("noc: warmup %w", err)
	}
	pre := net.Stats()
	net.SetMeasuring(true)
	_, err = net.RunUntil(p.Ctx, p.MeasureCycles, inject, nil)
	net.SetMeasuring(false)
	if err != nil {
		return Result{}, fmt.Errorf("noc: measurement %w", err)
	}
	mid := net.Stats()
	grew := backlogGrew(pre, mid)
	if grew && p.StopWhenSaturated {
		return Result{Saturated: true, Cycles: mid.Cycles}, nil
	}
	// Drain: keep background (unmeasured) traffic flowing so measured
	// packets complete under load, per standard methodology, until every
	// measured packet is ejected or the budget runs out.
	drained, err := net.RunUntil(p.Ctx, p.DrainCycles, inject, func() bool {
		created, ejected := net.MeasuredCounts()
		return ejected == created
	})
	if err != nil {
		return Result{}, fmt.Errorf("noc: drain %w", err)
	}
	post := net.Stats()
	d := post.Sub(pre)

	res := Result{
		MeasuredPackets: d.MeasuredEjected,
		Cycles:          post.Cycles,
		Events:          d.Events,
		MeasureWindow:   d.Cycles,
	}
	if d.MeasuredEjected > 0 {
		res.AvgLatency = float64(d.LatencySum) / float64(d.MeasuredEjected)
		res.AvgNetLatency = float64(d.NetLatencySum) / float64(d.MeasuredEjected)
	}
	if p.MeasureCycles > 0 && set.Size() > 0 {
		// Accepted traffic over the measurement window only (drain-phase
		// ejections excluded).
		res.ThroughputFlits = float64(mid.FlitsEjected-pre.FlitsEjected) /
			float64(p.MeasureCycles) / float64(set.Size())
	}
	// Saturated when measured packets could not drain, or when source-queue
	// backlog grew across the measurement window.
	res.Saturated = !drained || grew
	return res, nil
}

// backlogGrew reports whether the source-queue backlog grew across the
// measurement window from pre to mid: open-loop sources generating faster
// than the network accepts. The small absolute and relative slack keeps
// low-load runs from tripping on noise. Measured packets are created only
// inside the window, so both operands are final when it closes.
func backlogGrew(pre, mid Stats) bool {
	growth := float64((mid.PacketsCreated - mid.PacketsInjected) - (pre.PacketsCreated - pre.PacketsInjected))
	return growth > 0.02*float64(mid.MeasuredCreated-pre.MeasuredCreated)+12
}

// ZeroLoadLatency returns the analytic zero-load packet latency in cycles
// for a packet traversing hops links: one cycle of injection, a five-stage
// (BW, RC, VA, SA, ST) traversal plus LinkLatency per intermediate hop,
// a four-stage traversal plus NI hand-off at the destination, and tail
// serialization. Tests pin the simulator's timing to this formula.
func ZeroLoadLatency(cfg Config, hops int) float64 {
	perHop := 4 + cfg.LinkLatency
	return float64(1 + perHop*hops + 4 + (cfg.PacketLength - 1))
}
