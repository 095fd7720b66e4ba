package serve

import "sync/atomic"

// Metrics are the server's operational counters. Counters are cumulative
// over the process lifetime; the queue/running gauges come from the live
// job table via Snapshot.
type Metrics struct {
	Admitted  atomic.Int64 // submissions accepted into the queue
	Shed      atomic.Int64 // submissions rejected 429 by admission control
	Done      atomic.Int64 // jobs finished successfully
	Failed    atomic.Int64 // jobs finished with a permanent error
	Cancelled atomic.Int64 // jobs removed by DELETE
	Recovered atomic.Int64 // jobs re-queued during restart recovery
}

// MetricsSnapshot is the JSON shape of the server's counters and gauges;
// cmd/nocsprintd publishes it as the expvar "nocsprintd".
type MetricsSnapshot struct {
	QueueDepth int   `json:"queue_depth"`
	Running    int   `json:"running"`
	Admitted   int64 `json:"admitted"`
	Shed       int64 `json:"shed"`
	Done       int64 `json:"done"`
	Failed     int64 `json:"failed"`
	Cancelled  int64 `json:"cancelled"`
	Recovered  int64 `json:"recovered"`
}

// MetricsSnapshot returns a point-in-time view of the server's metrics.
func (s *Server) MetricsSnapshot() MetricsSnapshot {
	s.mu.Lock()
	depth, running := len(s.queue), s.running
	s.mu.Unlock()
	return MetricsSnapshot{
		QueueDepth: depth,
		Running:    running,
		Admitted:   s.metrics.Admitted.Load(),
		Shed:       s.metrics.Shed.Load(),
		Done:       s.metrics.Done.Load(),
		Failed:     s.metrics.Failed.Load(),
		Cancelled:  s.metrics.Cancelled.Load(),
		Recovered:  s.metrics.Recovered.Load(),
	}
}
