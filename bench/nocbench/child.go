package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// report is what one child measured for one workload.
type report struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Traced    bool     `json:"traced"`
	Reps      int      `json:"reps"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	Digest    string   `json:"digest"`
	// Pinned says whether a pinned digest for this seed was checked.
	Pinned bool `json:"pinned"`
	// Cycles is the simulated network cycle count of one repetition, when
	// known.
	Cycles  int64                `json:"noc_cycles,omitempty"`
	Samples map[string][]float64 `json:"samples"`
}

func (r *report) fail(err error) {
	r.Failed++
	r.Errors = append(r.Errors, err.Error())
}

// measure sets w up and measures it in this process. It returns the report
// and, for a traced run, the spans.
func measure(w workload, c config, o options, want *pin) (*report, []span) {
	r := &report{Workload: w.name, Seed: c.seed, Traced: o.trace, Samples: map[string][]float64{}}
	start := o.start
	if start.IsZero() {
		start = time.Now()
	}
	inst, err := w.setup(c)
	if err != nil {
		r.Attempted++
		r.fail(fmt.Errorf("set-up: %w", err))
		return r, nil
	}
	r.Samples["setup_s"] = []float64{time.Since(start).Seconds()}
	defer func() {
		if err := inst.close(); err != nil {
			r.fail(fmt.Errorf("closing: %w", err))
		}
	}()
	if o.setupOnly {
		return r, nil
	}

	reps := o.reps
	if o.trace {
		reps = 1
	}
	var first *outcome
	var firstWall time.Duration
	var begun time.Time
	rep := 0
	if !o.trace {
		rep = -1 // a warm-up repetition: checked like the others, not recorded
	}
	for ; ; rep++ {
		if rep == 0 {
			begun = time.Now()
		}
		if o.seconds > 0 && !o.trace {
			if rep > 0 && time.Since(begun).Seconds() >= o.seconds {
				break
			}
		} else if rep >= reps {
			break
		}
		if err := inst.prepare(); err != nil {
			r.fail(fmt.Errorf("preparing repetition %d: %w", rep, err))
			break
		}
		// Return freed memory to the OS first, so the repetition's peak
		// resident set is its own and not what earlier ones left behind.
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			r.fail(err)
			break
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		gc0, cpu0 := cpuSeconds()
		start := time.Now()
		out, err := inst.run()
		el := time.Since(start)
		gc1, cpu1 := cpuSeconds()
		runtime.ReadMemStats(&m1)
		r.Attempted += max(out.ops, 1)
		if err != nil {
			r.fail(err)
			continue
		}
		r.Failed += out.failed
		r.Errors = append(r.Errors, out.errors...)
		switch {
		case r.Digest == "":
			r.Digest = out.digest
		case out.digest != r.Digest:
			r.fail(fmt.Errorf("repetition %d digest %s differs from the first repetition's %s", rep, out.digest, r.Digest))
			continue
		}
		if want != nil && out.digest != want.Digest {
			r.fail(fmt.Errorf("digest %s does not match the pinned %s", out.digest, want.Digest))
			continue
		}
		if rep < 0 {
			continue
		}
		r.Reps++
		if first == nil {
			first, firstWall = &out, el
		}
		cycles := out.cycles
		if cycles == 0 && want != nil {
			cycles = want.Cycles
		}
		if out.cycles > 0 {
			if r.Cycles > 0 && out.cycles != r.Cycles {
				r.fail(fmt.Errorf("repetition %d simulated %d cycles, the first %d", rep, out.cycles, r.Cycles))
				continue
			}
			r.Cycles = out.cycles
		}
		r.Samples["run_s"] = append(r.Samples["run_s"], el.Seconds())
		if rss, err := peakRSSMB(); err == nil {
			r.Samples["peak_rss_mb"] = append(r.Samples["peak_rss_mb"], rss)
		} else {
			r.fail(err)
		}
		if cycles > 0 {
			r.Samples["sim_mcycles_per_s"] = append(r.Samples["sim_mcycles_per_s"], float64(cycles)/1e6/el.Seconds())
		}
		r.Samples["go.alloc_mb"] = append(r.Samples["go.alloc_mb"], float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		r.Samples["go.mallocs"] = append(r.Samples["go.mallocs"], float64(m1.Mallocs-m0.Mallocs))
		if cpu1 > cpu0 {
			r.Samples["go.gc_cpu_frac"] = append(r.Samples["go.gc_cpu_frac"], (gc1-gc0)/(cpu1-cpu0))
		}
		merge(r.Samples, out.samples)
	}
	r.Pinned = want != nil

	var spans []span
	if o.trace && first != nil {
		tr := newTracer()
		t, err := inst.trace(tr, *first)
		r.Attempted++
		if err != nil {
			r.fail(fmt.Errorf("traced run: %w", err))
		} else {
			spans = tr.snapshot()
			if err := checkSpans(spans); err != nil {
				r.fail(fmt.Errorf("traced run: %w", err))
			}
			merge(r.Samples, t.samples)
			r.Samples["trace_overhead_frac"] = []float64{t.wall.Seconds()/firstWall.Seconds() - 1}
			if t.cycles > 0 {
				if r.Cycles > 0 && r.Cycles != t.cycles {
					r.fail(fmt.Errorf("traced run counted %d cycles, the untraced run %d", t.cycles, r.Cycles))
				}
				r.Cycles = t.cycles
				if _, ok := r.Samples["sim_mcycles_per_s"]; !ok {
					r.Samples["sim_mcycles_per_s"] = []float64{float64(t.cycles) / 1e6 / firstWall.Seconds()}
				}
			}
		}
	}
	if want != nil && want.Cycles > 0 && r.Cycles > 0 && r.Cycles != want.Cycles {
		r.fail(fmt.Errorf("%d simulated cycles do not match the pinned %d", r.Cycles, want.Cycles))
	}
	return r, spans
}

// cpuSeconds returns the runtime's estimates of GC CPU time and of all CPU
// time available to the process so far.
func cpuSeconds() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// resetPeakRSS sets this process's peak resident set back to its current
// resident set, so the next peakRSSMB covers one repetition.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak resident set: %w", err)
	}
	return nil
}

// peakRSSMB returns this process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// runChild measures one workload and writes its report to stdout, and the
// spans of a traced run to DIR/trace-<workload>-s<seed>.jsonl.
func runChild(root, name string, seed int64, o options, pinning bool, outDir string, stdout io.Writer) int {
	w, err := findWorkload(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nocbench:", err)
		return 1
	}
	var want *pin
	if !pinning {
		p, err := loadPins(root)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nocbench: reading pins:", err)
			return 1
		}
		want = p.lookup(name, seed)
	}
	scratch, err := os.MkdirTemp(outDir, "scratch-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "nocbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	c := config{seed: seed, workers: min(2, runtime.NumCPU()), dir: scratch}
	r, spans := measure(w, c, o, want)
	if o.trace && !o.setupOnly {
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-s%d.jsonl", name, seed))
		if err := writeSpans(path, spans); err != nil {
			r.fail(fmt.Errorf("writing spans: %w", err))
		}
	}
	if err := json.NewEncoder(stdout).Encode(r); err != nil {
		fmt.Fprintln(os.Stderr, "nocbench:", err)
		return 1
	}
	return 0
}

// spawn measures one workload in child processes, each ending before the
// next starts: the measuring child, and setups-1 children that only set the
// workload up, half before it and half after, so the set-up samples span
// the run rather than one moment of it.
func spawn(name string, seed int64, o options, setups int, pinning bool, outDir string) (*report, error) {
	args := []string{
		"-workload", name,
		"-seed", strconv.FormatInt(seed, 10),
		"-reps", strconv.Itoa(o.reps),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace=" + strconv.FormatBool(o.trace),
		"-pin=" + strconv.FormatBool(pinning),
		"-out", outDir,
	}
	setUps := report{Samples: map[string][]float64{}}
	setUp := func(n int) error {
		for i := 0; i < n; i++ {
			r, err := child(args, "setup")
			if err != nil {
				return fmt.Errorf("workload %s: %w", name, err)
			}
			setUps.Attempted += r.Attempted
			setUps.Failed += r.Failed
			setUps.Errors = append(setUps.Errors, r.Errors...)
			merge(setUps.Samples, r.Samples)
		}
		return nil
	}
	before := (setups - 1) / 2
	if err := setUp(before); err != nil {
		return nil, err
	}
	r, err := child(args, "run")
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	if err := setUp(setups - 1 - before); err != nil {
		return nil, err
	}
	r.Attempted += setUps.Attempted
	r.Failed += setUps.Failed
	r.Errors = append(r.Errors, setUps.Errors...)
	r.Samples["setup_s"] = append(r.Samples["setup_s"], setUps.Samples["setup_s"]...)
	return r, nil
}

// child runs one child process in the given mode and decodes its report.
func child(args []string, mode string) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"="+mode, startEnv+"="+strconv.FormatInt(time.Now().UnixNano(), 10))
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child process: %w", err)
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("child report: %w", err)
	}
	return &r, nil
}
