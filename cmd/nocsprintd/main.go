// Command nocsprintd is the sweep-as-a-service daemon: a long-running,
// failure-tolerant HTTP job server over the experiment drivers.
//
// Usage:
//
//	nocsprintd -addr :8089 -state /var/lib/nocsprintd
//
// Submit sweeps with POST /v1/jobs, poll GET /v1/jobs/{id}, cancel with
// DELETE. The queue is bounded: over-capacity submissions receive 429 with
// a Retry-After hint. Every job journals its completed sweep points under
// the state directory, so a crash (even kill -9) followed by a restart
// resumes each incomplete job from its checkpoint and produces results
// byte-identical to an uninterrupted run. The first SIGTERM/SIGINT drains
// gracefully — admission stops, in-flight jobs finish or checkpoint, then
// the process exits; a second signal aborts in-flight points at cycle
// granularity.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nocsprint/internal/serve"
)

// options are the daemon's command-line knobs.
type options struct {
	addr         string
	state        string
	queueCap     int
	concurrency  int
	jobTimeout   time.Duration
	abortGrace   time.Duration
	retryAfter   time.Duration
	maxBody      int64
	drainTimeout time.Duration
}

func parseArgs(args []string, output io.Writer) (options, error) {
	var o options
	def := serve.Config{}.WithDefaults()
	fs := flag.NewFlagSet("nocsprintd", flag.ContinueOnError)
	fs.SetOutput(output)
	fs.StringVar(&o.addr, "addr", ":8089", "HTTP listen address for the job API")
	fs.StringVar(&o.state, "state", "nocsprintd-state", "state directory: job records, checkpoint journals, results")
	fs.IntVar(&o.queueCap, "queue", def.QueueCap, "bounded queue capacity; further submissions are shed with 429")
	fs.IntVar(&o.concurrency, "concurrency", def.Concurrency, "jobs executed simultaneously (each fans its own sweep workers)")
	fs.DurationVar(&o.jobTimeout, "job-timeout", 0, "default per-job deadline (0 = none; specs may set their own)")
	fs.DurationVar(&o.abortGrace, "abort-grace", def.AbortGrace, "grace between a job's graceful deadline stop and the point-level abort")
	fs.DurationVar(&o.retryAfter, "retry-after", def.RetryAfter, "Retry-After hint sent with shed submissions")
	fs.Int64Var(&o.maxBody, "max-body", def.MaxBodyBytes, "submission body size limit in bytes")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 2*time.Minute, "bound on the graceful drain before in-flight points are aborted")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.queueCap < 1 {
		return options{}, fmt.Errorf("-queue %d: must be >= 1", o.queueCap)
	}
	if o.concurrency < 1 {
		return options{}, fmt.Errorf("-concurrency %d: must be >= 1", o.concurrency)
	}
	if o.jobTimeout < 0 || o.abortGrace < 0 || o.drainTimeout < 0 || o.retryAfter < 0 {
		return options{}, errors.New("durations must be >= 0")
	}
	if o.maxBody < 1 {
		return options{}, fmt.Errorf("-max-body %d: must be >= 1", o.maxBody)
	}
	return o, nil
}

func main() {
	o, err := parseArgs(os.Args[1:], os.Stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintf(os.Stderr, "nocsprintd: %v\n", err)
		}
		os.Exit(2)
	}
	logger := log.New(os.Stderr, "nocsprintd: ", log.LstdFlags)
	if err := run(o, logger); err != nil {
		logger.Fatal(err)
	}
}

// publishMetrics publishes srv's counters and gauges as the expvar
// "nocsprintd", served at GET /debug/vars. expvar names are process-global
// and cannot be published twice, so only this process, which runs exactly
// one server, publishes them.
func publishMetrics(srv *serve.Server) {
	expvar.Publish("nocsprintd", expvar.Func(func() any { return srv.MetricsSnapshot() }))
}

// run binds the job API's address, then recovers the state directory and
// serves until a signal drains it. Binding comes first: serve.New re-queues
// and starts the recovered jobs, so a daemon that cannot listen must fail
// before it runs any of them.
func run(o options, logger *log.Logger) error {
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return fmt.Errorf("-addr %s: %w", o.addr, err)
	}
	srv, err := serve.New(serve.Config{
		StateDir:       o.state,
		QueueCap:       o.queueCap,
		Concurrency:    o.concurrency,
		DefaultTimeout: o.jobTimeout,
		AbortGrace:     o.abortGrace,
		RetryAfter:     o.retryAfter,
		MaxBodyBytes:   o.maxBody,
		Logf:           logger.Printf,
	})
	if err != nil {
		ln.Close()
		return err
	}
	publishMetrics(srv)

	// A hardened http.Server on a dedicated mux: explicit timeouts, bounded
	// headers, no default-mux handlers. The write timeout must comfortably
	// exceed a large result's encode time, not a sweep's runtime — results
	// are served from memory.
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadTimeout:       30 * time.Second,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    64 << 10,
		ErrorLog:          logger,
	}
	logger.Printf("job API on http://%s/v1/jobs (state in %s)", ln.Addr(), o.state)

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)

	select {
	case err := <-serveErr:
		srv.Close()
		return fmt.Errorf("http server: %w", err)
	case sig := <-sigc:
		logger.Printf("%v — draining: admission closed, in-flight jobs finish or checkpoint (signal again to abort points)", sig)
	}

	// Escalation path: a second signal, or the drain timeout, aborts
	// in-flight points at cycle granularity so the process always exits.
	done := make(chan struct{})
	go func() {
		select {
		case <-sigc:
			logger.Printf("second signal — aborting in-flight points")
			srv.Abort()
		case <-time.After(o.drainTimeout):
			logger.Printf("drain timeout %v reached — aborting in-flight points", o.drainTimeout)
			srv.Abort()
		case <-done:
		}
	}()

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Printf("http shutdown: %v", err)
	}
	srv.Drain()
	close(done)
	srv.Close()
	logger.Printf("drained; state preserved in %s", o.state)
	return nil
}
