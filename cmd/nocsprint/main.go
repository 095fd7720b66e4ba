// Command nocsprint regenerates every table and figure of the paper's
// evaluation from the reproduction library.
//
// Usage:
//
//	nocsprint [flags] <experiment> [flags]
//
// Flags are accepted both before and after the experiment name.
//
// The experiments are the entries of the core registry (core.Experiments),
// which the -json mode and the nocsprintd daemon dispatch through as well,
// plus the CLI-only trace. fig10 is an alias of fig9, whose one set of
// simulations gives both figures; "all" runs the paper's evaluation from
// table1 through duration, then the gating baseline.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"nocsprint/internal/ckpt"
	"nocsprint/internal/core"
	"nocsprint/internal/noc"
	"nocsprint/internal/obs"
	"nocsprint/internal/routing"
	"nocsprint/internal/topo"
	"nocsprint/internal/traffic"
)

// options are the command-line knobs shared by every experiment.
type options struct {
	fast        bool
	json        bool
	check       bool
	refstep     bool
	workers     int
	timeout     time.Duration
	checkpoint  string
	resume      bool
	obs         bool
	obsInterval int
	obsOut      string
	httpAddr    string
	traceOut    string

	// Runtime state wired up by execute, not flags: the sweep-level and
	// point-level cancellation contexts, the open checkpoint journal (nil
	// when -checkpoint is not given), the telemetry recorder (nil without
	// -obs), and the sweep-progress callback (nil without -http).
	ctx      context.Context
	abort    context.Context
	journal  *ckpt.Journal
	rec      *obs.Recorder
	progress func(done, total int)
}

// parseArgs parses the command line. On an error it writes one error line
// and the usage to output; on -h, the usage alone.
func parseArgs(args []string, output io.Writer) (options, string, error) {
	o, exp, err := parseFlags(args)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintf(output, "nocsprint: %v\n", err)
		}
		usage(output)
	}
	return o, exp, err
}

// parseFlags parses flags placed before and/or after the experiment name.
// The standard flag package stops at the first positional argument, so a
// single Parse would silently ignore everything after the experiment
// ("nocsprint fig11 -fast" used to run the slow sweep); the remaining
// arguments are re-parsed against the same flag set, and leftover
// positional arguments are an error.
func parseFlags(args []string) (options, string, error) {
	var o options
	fs := newFlagSet(&o, io.Discard)
	if err := fs.Parse(args); err != nil {
		return options{}, "", err
	}
	if fs.NArg() < 1 {
		return options{}, "", errors.New("missing experiment name")
	}
	exp := fs.Arg(0)
	if rest := fs.Args()[1:]; len(rest) > 0 {
		// Re-parse with the same flag set so values from the leading parse
		// survive (re-registering the vars would reset them to defaults).
		if err := fs.Parse(rest); err != nil {
			return options{}, "", err
		}
		if fs.NArg() > 0 {
			return options{}, "", fmt.Errorf("unexpected argument %q after experiment %q", fs.Arg(0), exp)
		}
	}
	if o.workers < 0 {
		return options{}, "", fmt.Errorf("-workers %d: must be >= 0", o.workers)
	}
	if o.timeout < 0 {
		return options{}, "", fmt.Errorf("-timeout %v: must be >= 0", o.timeout)
	}
	if o.resume && o.checkpoint == "" {
		return options{}, "", errors.New("-resume requires -checkpoint")
	}
	if o.obsInterval < 1 {
		return options{}, "", fmt.Errorf("-obs-interval %d: must be >= 1", o.obsInterval)
	}
	return o, exp, nil
}

// newFlagSet defines the command-line flags on o, with their help text, and
// writes what the flag package prints to output.
func newFlagSet(o *options, output io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("nocsprint", flag.ContinueOnError)
	fs.SetOutput(output)
	fs.BoolVar(&o.fast, "fast", false, "shrink simulation windows for quick smoke runs")
	fs.BoolVar(&o.json, "json", false, "emit machine-readable JSON instead of tables")
	fs.BoolVar(&o.check, "check", false, "enable runtime invariant checking: every simulation enforces\n"+
		"flit conservation, credit bounds, dark-router silence, CDOR\n"+
		"hop rules, and a deadlock watchdog (results are unchanged;\n"+
		"violations abort with a network-state snapshot)")
	fs.BoolVar(&o.refstep, "refstep", false, "run every simulation on the reference full-scan stepper\n"+
		"instead of the active-work scheduler (results are proven\n"+
		"bit-identical; this exists for auditing and benchmarking)")
	fs.IntVar(&o.workers, "workers", 0, "run sweeps on `N` parallel workers: 0 = all cores, 1 = serial")
	fs.DurationVar(&o.timeout, "timeout", 0, "cancel the run gracefully after this `duration` (e.g. 90s,\n"+
		"10m; 0 = none); in-flight sweep points finish and are journaled")
	fs.StringVar(&o.checkpoint, "checkpoint", "", "crash-safe sweeps: journal every completed sweep point to `DIR`\n"+
		"(fsynced as it finishes), so an interrupted run loses at most\n"+
		"the points still in flight")
	fs.BoolVar(&o.resume, "resume", false, "with -checkpoint: skip points already journaled; the merged\n"+
		"output is bit-identical to an uninterrupted run, at any\n"+
		"-workers count (a missing or corrupt journal is rejected\n"+
		"with a warning and the run starts fresh; points of another\n"+
		"run shape, such as -fast, match nothing and are recomputed)")
	fs.BoolVar(&o.obs, "obs", false, "attach cycle-sampled telemetry to every simulation: per-window\n"+
		"flit/utilization/queue/power series plus a typed event\n"+
		"timeline (results are proven bit-identical with or without)")
	fs.IntVar(&o.obsInterval, "obs-interval", obs.Config{}.WithDefaults().Interval, "with -obs: sample telemetry every `N` cycles")
	fs.StringVar(&o.obsOut, "obs-out", "obs", "with -obs: write per-point telemetry files to `DIR`, one .jsonl\n"+
		"and one .csv per simulation")
	fs.StringVar(&o.httpAddr, "http", "", "serve live monitoring on `ADDR` (e.g. :8080): sweep progress\n"+
		"counters at /debug/vars (expvar) and profiling at /debug/pprof")
	fs.StringVar(&o.traceOut, "trace-out", "trace.jsonl", fmt.Sprintf("trace experiment: write the trace to `FILE`: %d cycles of\n"+
		"uniform traffic at %g flits/node/cycle, seed %d", traceCycles, traceRate, traceSeed))
	return fs
}

// Sweep-progress counters exported for -http monitoring: GET /debug/vars on
// the -http address returns them alongside the standard expvar set. They are
// package-level because expvar names are global and main runs exactly one
// experiment per process.
var (
	sweepDone  = expvar.NewInt("sweep_done")
	sweepTotal = expvar.NewInt("sweep_total")
)

func main() {
	opts, exp, err := parseArgs(os.Args[1:], os.Stderr)
	if err != nil {
		os.Exit(2)
	}
	if err := execute(exp, opts); err != nil {
		fmt.Fprintf(os.Stderr, "nocsprint: %v\n", err)
		os.Exit(1)
	}
}

// execute wraps one experiment run with the interruption-tolerance layer:
// a sweep-level context cancelled by the first SIGINT/SIGTERM (or -timeout),
// a point-level abort context cancelled by a second signal, and the
// checkpoint journal when -checkpoint is given. The first signal lets
// in-flight sweep points finish and be journaled; the second stops them
// mid-run at cycle granularity.
func execute(exp string, o options) error {
	sweepCtx, cancelSweep := context.WithCancel(context.Background())
	defer cancelSweep()
	abortCtx, cancelAbort := context.WithCancel(context.Background())
	defer cancelAbort()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		if _, ok := <-sigc; !ok {
			return
		}
		fmt.Fprintln(os.Stderr, "nocsprint: interrupted — letting in-flight points finish (interrupt again to abort them)")
		cancelSweep()
		if _, ok := <-sigc; !ok {
			return
		}
		fmt.Fprintln(os.Stderr, "nocsprint: second interrupt — aborting in-flight points")
		cancelAbort()
	}()

	if o.timeout > 0 {
		t := time.AfterFunc(o.timeout, func() {
			fmt.Fprintf(os.Stderr, "nocsprint: timeout %v reached — letting in-flight points finish\n", o.timeout)
			cancelSweep()
		})
		defer t.Stop()
	}

	if o.checkpoint != "" {
		j, err := openCheckpoint(o, exp)
		if err != nil {
			return err
		}
		defer j.Close()
		o.journal = j
	}
	o.ctx, o.abort = sweepCtx, abortCtx

	if o.httpAddr != "" {
		// A dedicated mux carrying exactly the monitoring surface — expvar's
		// /debug/vars and pprof's /debug/pprof — so nothing else registered on
		// the default mux can leak onto this listener. Sweep drivers feed the
		// sweep_done/sweep_total counters through NetSimParams.Progress.
		mux := http.NewServeMux()
		mux.Handle("/debug/vars", expvar.Handler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		// WriteTimeout stays unset: pprof profile/trace stream for a
		// client-chosen duration and would be cut off by one.
		httpSrv := &http.Server{
			Handler:           mux,
			ReadTimeout:       30 * time.Second,
			ReadHeaderTimeout: 5 * time.Second,
			IdleTimeout:       time.Minute,
			MaxHeaderBytes:    64 << 10,
		}
		ln, err := net.Listen("tcp", o.httpAddr)
		if err != nil {
			return fmt.Errorf("-http %s: %w", o.httpAddr, err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = httpSrv.Shutdown(ctx)
		}()
		fmt.Fprintf(os.Stderr, "nocsprint: monitoring on http://%s/debug/vars (pprof at /debug/pprof)\n", ln.Addr())
		go func() { _ = httpSrv.Serve(ln) }()
		o.progress = func(done, total int) {
			sweepDone.Set(int64(done))
			sweepTotal.Set(int64(total))
		}
	}

	if o.obs {
		rec, err := newRecorder(o)
		if err != nil {
			return fmt.Errorf("-obs: %w", err)
		}
		o.rec = rec
	}

	err := run(exp, o, os.Stdout)
	if err != nil && errors.Is(err, context.Canceled) && o.journal != nil {
		fmt.Fprintf(os.Stderr, "nocsprint: %d journal record(s) saved in %s\n", o.journal.Len(), o.journal.Path())
		fmt.Fprintf(os.Stderr, "nocsprint: resume with: nocsprint %s -checkpoint %s -resume\n", exp, o.checkpoint)
	}
	if o.rec != nil {
		// Telemetry from completed points is written even when the run was
		// cancelled part-way: the collectors that exist are whole.
		if n := len(o.rec.Collectors()); n > 0 {
			if werr := o.rec.WriteFiles(o.obsOut); werr != nil {
				if err == nil {
					err = werr
				}
				fmt.Fprintf(os.Stderr, "nocsprint: %v\n", werr)
			} else {
				fmt.Fprintf(os.Stderr, "nocsprint: telemetry for %d point(s) written to %s\n", n, o.obsOut)
			}
		}
	}
	return err
}

// newRecorder builds the -obs telemetry recorder: a sample every
// -obs-interval cycles. Core prices each sample at the simulated system's
// corner.
func newRecorder(o options) (*obs.Recorder, error) {
	return obs.NewRecorder(obs.Config{Interval: o.obsInterval})
}

// openCheckpoint opens the journal for one experiment run inside the
// -checkpoint directory. A fresh run truncates it; -resume reopens it, and
// starts fresh, with a warning, when it is missing or does not decode. The
// point keys are the only guard a resume needs: they hash the run shape, so
// a journal of another shape (a full-window run's, under -fast) satisfies
// none of this run's points, which are recomputed and appended.
func openCheckpoint(o options, exp string) (*ckpt.Journal, error) {
	if err := os.MkdirAll(o.checkpoint, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint dir: %w", err)
	}
	path := filepath.Join(o.checkpoint, exp+".journal")
	if o.resume {
		j, err := ckpt.Open(path)
		if err == nil {
			fmt.Fprintf(os.Stderr, "nocsprint: resuming: %d journal record(s) in %s\n", j.Len(), path)
			return j, nil
		}
		fmt.Fprintf(os.Stderr, "nocsprint: cannot resume (%v); starting fresh\n", err)
	}
	return ckpt.Create(path)
}

// usage writes the usage text to w: the command line, every flag with its
// help, the signal handling, and the experiments.
func usage(w io.Writer) {
	fmt.Fprint(w, "usage: nocsprint [flags] <experiment> [flags]\n\nflags:\n")
	newFlagSet(new(options), w).PrintDefaults()
	fmt.Fprint(w, `
signals: the first SIGINT/SIGTERM stops claiming new sweep points, lets
in-flight points finish (journaling them), and exits with a partial-result
summary; a second signal aborts in-flight points at cycle granularity.

experiments:
`)
	for _, e := range core.Experiments() {
		fmt.Fprintf(w, "  %-9s %s\n", e.Name, e.Summary)
	}
	fmt.Fprintf(w, "  %-9s %s\n", "trace", "offline trace generation + JSONL export + deterministic replay (text only)")
	fmt.Fprintf(w, "  %-9s %s\n  %-9s %s\n", "all", "the paper's evaluation, then the gating baseline (text only):",
		"", strings.Join(allExperiments, " "))
}

// allExperiments is what `nocsprint all` runs, in order: the paper's
// evaluation from Table 1 through the Section 4.4 durations (fig9 prints
// Figure 10's numbers too), then the gating baseline.
var allExperiments = []string{"table1", "fig2", "fig3", "fig4", "fig7", "fig8", "fig9", "fig11", "fig12", "duration", "gating"}

// run executes one experiment (or the `all` sequence) through the core
// registry and writes its result to stdout: the typed result in a small
// metadata envelope under -json, the registry's text tables otherwise.
// -workers threads through to the parallel sweep runner, and the
// cancellation contexts, checkpoint journal and telemetry ride along.
func run(name string, o options, stdout io.Writer) error {
	names := []string{name}
	if !o.json {
		if name == "trace" {
			return traceCmd(stdout, o)
		}
		if name == "all" {
			names = allExperiments
		}
	}
	sim := core.NetSimParams{
		Workers: o.workers, Check: o.check, Reference: o.refstep,
		Ctx: o.ctx, Abort: o.abort, Journal: o.journal,
		Obs: o.rec, Progress: o.progress,
	}
	for _, n := range names {
		e, ok := core.LookupExperiment(n)
		if !ok {
			if n == "trace" || n == "all" {
				return fmt.Errorf("experiment %q has no JSON form", n)
			}
			usage(os.Stderr)
			return fmt.Errorf("unknown experiment %q", n)
		}
		result, err := e.Run(sim, o.fast)
		if err != nil {
			return err
		}
		if o.json {
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(map[string]any{
				"paper":      "NoC-Sprinting, DAC 2014 (10.1145/2593069.2593165)",
				"experiment": n,
				"result":     result,
			})
		}
		if err := e.Text(stdout, result); err != nil {
			return err
		}
		if len(names) > 1 {
			fmt.Fprintln(stdout)
		}
	}
	return nil
}

// The trace experiment's injection horizon in cycles, its injection rate in
// flits per node per cycle, and its RNG seed.
const (
	traceCycles = 2000
	traceRate   = 0.1
	traceSeed   = 1
)

// traceCmd generates a deterministic uniform-random injection trace over the
// full mesh, writes it through noc.WriteTraceFile — the path that joins the
// buffered-write flush error with the file's Close error, so a full disk is
// never reported as success — and replays it on a fresh network to verify the
// file round-trips.
func traceCmd(stdout io.Writer, o options) error {
	rule := strings.Repeat("=", 72)
	fmt.Fprintf(stdout, "%s\nTrace: offline generation, JSONL export, deterministic replay\n%s\n", rule, rule)
	cfg := core.DefaultConfig().NoC
	set := traffic.NewSet(topo.AllNodes(cfg.Nodes()))
	events, err := noc.GenerateTrace(set, traffic.NewUniform(set.Size()), traceRate,
		cfg.PacketLength, traceCycles, traceSeed)
	if err != nil {
		return err
	}
	if err := noc.WriteTraceFile(o.traceOut, events); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d injection(s) over %d cycles to %s\n", len(events), traceCycles, o.traceOut)

	f, err := os.Open(o.traceOut)
	if err != nil {
		return err
	}
	reread, err := noc.ReadTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	net, err := noc.New(cfg, routing.NewDOR(topo.NewMesh(cfg.Width, cfg.Height)), nil)
	if err != nil {
		return err
	}
	res, err := noc.ReplayTrace(net, reread, 10*traceCycles+20000)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "replay: %d packet(s), avg latency %.1f cycles, drained=%v\n",
		res.Packets, res.AvgLatency, res.Drained)
	return nil
}
