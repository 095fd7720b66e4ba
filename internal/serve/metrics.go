package serve

// MetricsSnapshot is the server's operational record: counters cumulative
// over the process lifetime, kept under the server's lock, and the
// queue/running gauges, which a snapshot reads from the live job table.
// cmd/nocsprintd publishes it as the expvar "nocsprintd".
type MetricsSnapshot struct {
	QueueDepth int   `json:"queue_depth"`
	Running    int   `json:"running"`
	Admitted   int64 `json:"admitted"`  // submissions accepted into the queue
	Shed       int64 `json:"shed"`      // submissions rejected 429 by admission control
	Done       int64 `json:"done"`      // jobs finished successfully
	Failed     int64 `json:"failed"`    // jobs finished with a permanent error
	Cancelled  int64 `json:"cancelled"` // jobs removed by DELETE
	Recovered  int64 `json:"recovered"` // jobs re-queued during restart recovery
}

// MetricsSnapshot returns a point-in-time view of the server's metrics.
func (s *Server) MetricsSnapshot() MetricsSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.metrics
	m.QueueDepth, m.Running = len(s.queue), s.running
	return m
}
