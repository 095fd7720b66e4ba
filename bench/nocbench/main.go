// Command nocbench is the repository's benchmark: it runs five workloads
// through the experiment layers' public functions, checks every result
// against a digest, and reports end-to-end metrics (untraced runs) or
// per-layer metrics (traced runs) by name, with unit and sample count.
//
// Usage, from the repository root:
//
//	go -C bench run ./nocbench [-seed N] [-reps R] [-seconds S] [-workload W] [-trace] [-out DIR]
//	go -C bench run ./nocbench -pin
//	go -C bench run ./nocbench -compare OLD.json[,OLD2.json...] NEW.json[,NEW2.json...]
//
// Each workload runs in child processes (re-execs of this binary), one at a
// time, so memory and GC state are per workload. Fifteen children set the
// workload up, and setup_s is the median of their start-to-ready times. One
// of them then runs a warm-up and R timed repetitions, or repeats until S
// seconds have passed when -seconds is set. Results go to a table on
// stdout, to DIR/<run>.json, and, for the workload's own metrics, to one
// JSON object on the last line of stdout. The exit code is non-zero when
// any operation failed or any result did not match its digest.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// A child process is a re-exec of this binary with childEnv set: "run"
// measures one workload and reports it as JSON on stdout, "setup" only sets
// it up and reports setup_s. startEnv carries the instant the parent
// started the child, in Unix nanoseconds, which is where setup_s begins.
const (
	childEnv = "NOCBENCH_CHILD"
	startEnv = "NOCBENCH_START"
)

// setups is how many children set a workload up in one run (the measuring
// child and setups-1 that only set up); setup_s is their median.
const setups = 15

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// options are the measurement settings a child receives.
type options struct {
	reps    int
	seconds float64
	trace   bool
	// start is when set-up began: the child's start, or the call to measure
	// when zero.
	start time.Time
	// setupOnly stops after the set-up.
	setupOnly bool
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("nocbench", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "workload seed; seeds 1 and 2 have pinned digests")
	reps := fs.Int("reps", 3, "timed repetitions per workload")
	seconds := fs.Float64("seconds", 0, "when > 0, repeat until this many seconds have passed instead of -reps times")
	only := fs.String("workload", "", "run only this workload (default: all)")
	trace := fs.Bool("trace", false, "traced run: replay with spans and report per-layer metrics")
	outDir := fs.String("out", "", "output directory (default bench/out)")
	pin := fs.Bool("pin", false, "rewrite bench/pins.json from traced runs at seeds 1 and 2")
	compare := fs.Bool("compare", false, "compare two sets of run files: -compare OLD NEW")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "nocbench:", err)
		return 1
	}
	man, err := loadManifest(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nocbench:", err)
		return 1
	}
	if *compare {
		return runCompare(man, fs.Args(), stdout)
	}
	if fs.NArg() > 0 || *reps < 1 || *seconds < 0 {
		fmt.Fprintln(os.Stderr, "nocbench: bad arguments; see -h")
		return 2
	}
	if *outDir == "" {
		*outDir = filepath.Join(root, "bench", "out")
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "nocbench:", err)
		return 1
	}
	o := options{reps: *reps, seconds: *seconds, trace: *trace}
	var names []string
	if *only != "" {
		if _, err := findWorkload(*only); err != nil {
			fmt.Fprintln(os.Stderr, "nocbench:", err)
			return 2
		}
		names = []string{*only}
	} else {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}

	if mode := os.Getenv(childEnv); mode != "" {
		ns, err := strconv.ParseInt(os.Getenv(startEnv), 10, 64)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nocbench: child without a start time:", err)
			return 1
		}
		o.start, o.setupOnly = time.Unix(0, ns), mode == "setup"
		return runChild(root, names[0], *seed, o, *pin, *outDir, stdout)
	}
	if *pin {
		return runPin(root, names, *outDir, stdout)
	}

	rf := runFile{
		Run:        fmt.Sprintf("%s-s%d-%s", runLabel(*only, *trace), *seed, time.Now().UTC().Format("20060102T150405.000Z")),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Seed:       *seed,
		Reps:       *reps,
		Seconds:    *seconds,
		Trace:      *trace,
		Commit:     commit(),
	}
	for _, name := range names {
		r, err := spawn(name, *seed, o, setups, false, *outDir)
		if err != nil {
			r = &report{Workload: name, Seed: *seed, Traced: *trace, Attempted: 1, Failed: 1, Errors: []string{err.Error()}}
		}
		rf.Workloads = append(rf.Workloads, r)
	}
	printTable(stdout, man, &rf)
	path := filepath.Join(*outDir, rf.Run+".json")
	if err := writeJSONFile(path, &rf); err != nil {
		fmt.Fprintln(os.Stderr, "nocbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	line, ok := resultLine(man, &rf)
	fmt.Fprintln(stdout, line)
	if !ok {
		return 1
	}
	return 0
}

func runLabel(only string, trace bool) string {
	label := only
	if label == "" {
		label = "all"
	}
	if trace {
		label += "-trace"
	}
	return label
}

// normalizeArgs joins "-trace 0" and "--trace 1" into "-trace=0" forms, so
// the boolean flag also takes its value as a separate argument.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// findRoot walks up from the working directory to the repository root, the
// directory holding BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

// metricDef is one metric BENCHMARK.json declares. Bound is nil for
// per-layer metrics.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// manifest is the part of BENCHMARK.json the program reads.
type manifest struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadManifest(root string) (*manifest, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

func (m *manifest) all() []metricDef {
	return append(append([]metricDef(nil), m.EndToEnd...), m.PerLayer...)
}

// pin is a workload's expected result at one seed.
type pin struct {
	Digest string `json:"digest"`
	Cycles int64  `json:"noc_cycles,omitempty"`
}

// pins maps workload, then seed, to the pinned result.
type pins map[string]map[string]pin

func pinsPath(root string) string { return filepath.Join(root, "bench", "pins.json") }

func loadPins(root string) (pins, error) {
	b, err := os.ReadFile(pinsPath(root))
	if errors.Is(err, os.ErrNotExist) {
		return pins{}, nil
	}
	if err != nil {
		return nil, err
	}
	p := pins{}
	return p, json.Unmarshal(b, &p)
}

func (p pins) lookup(workload string, seed int64) *pin {
	if v, ok := p[workload][strconv.FormatInt(seed, 10)]; ok {
		return &v
	}
	return nil
}

// runPin rewrites the pinned digests and cycle counts of the named
// workloads from traced runs at seeds 1 and 2, keeping the others.
func runPin(root string, names []string, outDir string, stdout io.Writer) int {
	p, err := loadPins(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nocbench: reading pins:", err)
		return 1
	}
	o := options{reps: 1, trace: true}
	for _, name := range names {
		p[name] = map[string]pin{}
		for _, seed := range []int64{1, 2} {
			r, err := spawn(name, seed, o, 1, true, outDir)
			if err == nil && r.Failed > 0 {
				err = errors.New(strings.Join(r.Errors, "; "))
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "nocbench: pinning %s at seed %d: %v\n", name, seed, err)
				return 1
			}
			p[name][strconv.FormatInt(seed, 10)] = pin{Digest: r.Digest, Cycles: r.Cycles}
			fmt.Fprintf(stdout, "%-16s seed %d  digest %s  noc_cycles %d\n", name, seed, r.Digest, r.Cycles)
		}
	}
	if err := writeJSONFile(pinsPath(root), p); err != nil {
		fmt.Fprintln(os.Stderr, "nocbench:", err)
		return 1
	}
	return 0
}

// runFile is DIR/<run>.json: the environment and every workload's report.
type runFile struct {
	Run        string    `json:"run"`
	GoVersion  string    `json:"go_version"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	NProc      int       `json:"nproc"`
	Seed       int64     `json:"seed"`
	Reps       int       `json:"reps"`
	Seconds    float64   `json:"seconds,omitempty"`
	Trace      bool      `json:"trace"`
	Commit     string    `json:"commit,omitempty"`
	Workloads  []*report `json:"workloads"`
}

// commit returns the VCS revision the binary was built from, when the
// build recorded one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	var rev, dirty string
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "-dirty"
			}
		}
	}
	if rev == "" {
		return ""
	}
	return rev + dirty
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printTable prints every measured metric of every workload with its
// median, range, sample count and unit.
func printTable(w io.Writer, man *manifest, rf *runFile) {
	fmt.Fprintf(w, "nocbench  seed %d  %s  GOMAXPROCS %d  nproc %d", rf.Seed, rf.GoVersion, rf.GOMAXPROCS, rf.NProc)
	if rf.Commit != "" {
		fmt.Fprintf(w, "  commit %s", rf.Commit)
	}
	fmt.Fprintln(w)
	for _, r := range rf.Workloads {
		digest := "unpinned"
		if r.Pinned {
			digest = "pinned"
		}
		fmt.Fprintf(w, "\n%s  reps %d  attempted %d  failed %d  digest %.16s (%s)", r.Workload, r.Reps, r.Attempted, r.Failed, r.Digest, digest)
		if r.Cycles > 0 {
			fmt.Fprintf(w, "  noc.cycles %d", r.Cycles)
		}
		fmt.Fprintln(w)
		for _, e := range r.Errors {
			fmt.Fprintf(w, "  error: %s\n", e)
		}
		fmt.Fprintf(w, "  %-30s %14s %14s %14s %6s  %s\n", "metric", "median", "min", "max", "n", "unit")
		for _, d := range man.all() {
			xs := r.Samples[d.Name]
			if len(xs) == 0 {
				continue
			}
			s := sorted(xs)
			fmt.Fprintf(w, "  %-30s %14.6g %14.6g %14.6g %6d  %s\n", d.Name, median(xs), s[0], s[len(s)-1], len(xs), d.Unit)
		}
	}
}

// resultLine is the last line of stdout: correctness, operation counts and,
// when one workload ran, the median of each metric of the run's kind —
// end-to-end untraced, per-layer traced. A per-layer metric the workload
// does not exercise reads 0.
func resultLine(man *manifest, rf *runFile) (string, bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range rf.Workloads {
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		if r.Failed > 0 || r.Digest == "" {
			line.Correct = false
		}
	}
	if len(rf.Workloads) == 1 {
		defs := man.EndToEnd
		if rf.Trace {
			defs = man.PerLayer
		}
		r := rf.Workloads[0]
		for _, d := range defs {
			v := 0.0
			if xs := r.Samples[d.Name]; len(xs) > 0 {
				v = median(xs)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v, line.Correct = 0, false
			}
			line.Metrics[d.Name] = value{v, d.Unit}
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(line); err != nil {
		return fmt.Sprintf(`{"correct": false, "attempted": %d, "failed": %d, "metrics": {}}`, max(line.Attempted, 1), line.Failed+1), false
	}
	return strings.TrimSpace(buf.String()), line.Correct
}
