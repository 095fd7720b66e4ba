package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"nocsprint/internal/core"
	"nocsprint/internal/workload"
)

// options are run's inputs, one per flag.
type options struct {
	mode, benchmark, scheme string
	power, dt, horizon      float64
	level                   int
	floorplan               bool
}

// defaults returns the flags' default values.
func defaults() options {
	return options{mode: "phases", benchmark: "dedup", scheme: "noc", level: 4, dt: 1e-4, horizon: 20}
}

func (o options) run() (string, error) {
	var out bytes.Buffer
	err := run(&out, o.mode, o.power, o.benchmark, o.scheme, o.level, o.floorplan, o.dt, o.horizon)
	return out.String(), err
}

// TestRunModes drives each mode on the default chip and checks the report
// it writes.
func TestRunModes(t *testing.T) {
	byPower := defaults()
	byPower.power = 106
	timeline := defaults()
	timeline.mode, timeline.dt, timeline.horizon = "timeline", 1e-3, 5
	// 0.05/dt is far past int's range here, yet the run has 10 steps.
	tinyDt := defaults()
	tinyDt.mode, tinyDt.power, tinyDt.dt, tinyDt.horizon = "timeline", 30, 1e-22, 1e-21
	heatmap := defaults()
	heatmap.mode, heatmap.floorplan = "heatmap", true
	for _, c := range []struct {
		name string
		o    options
		want []string
	}{
		{"phases by power", byPower, []string{
			"constant power 106.0 W (sustainable TDP 40.0 W)\n",
			"phase 2 (PCM melting at 345.1K)",
			"total sprint duration:",
		}},
		{"phases by benchmark", defaults(), []string{
			"benchmark dedup under NoC-sprinting: level 4,",
			"total sprint duration:",
		}},
		{"timeline", timeline, []string{
			"benchmark dedup under NoC-sprinting: level 4,",
			"time(s)  temp(K)  melted\n  0.000   318.15    0.0%\n",
		}},
		{"timeline at a tiny dt", tinyDt, []string{
			"time(s)  temp(K)  melted\n  0.000   318.15    0.0%\n",
		}},
		{"heatmap", heatmap, []string{
			"scheme NoC-sprinting, level 4, floorplan true\n",
			"peak ",
		}},
	} {
		out, err := c.o.run()
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		for _, want := range c.want {
			if !strings.Contains(out, want) {
				t.Errorf("%s: output lacks %q:\n%s", c.name, want, out)
			}
		}
	}
}

// TestPhasesMatchDurationRegistry: for every PARSEC benchmark, -mode phases
// -benchmark B prints, under -scheme full and -scheme noc, exactly the sprint
// duration the duration registry result holds for B (or SUSTAINABLE when
// that duration is infinite): thermsim and the registry price a sprint with
// the same power.
func TestPhasesMatchDurationRegistry(t *testing.T) {
	e, ok := core.LookupExperiment("duration")
	if !ok {
		t.Fatal("no duration registry entry")
	}
	res, err := e.Run(core.NetSimParams{}, false)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.(core.DurationResult).Rows
	if len(rows) != len(workload.Profiles()) {
		t.Fatalf("duration result has %d rows, want one per PARSEC benchmark", len(rows))
	}
	for _, row := range rows {
		for _, c := range []struct {
			scheme string
			want   float64
		}{{"full", row.FullSprint}, {"noc", row.NoCSprint}} {
			o := defaults()
			o.benchmark, o.scheme = row.Benchmark, c.scheme
			out, err := o.run()
			if err != nil {
				t.Fatalf("%s -scheme %s: %v", row.Benchmark, c.scheme, err)
			}
			lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
			last := lines[len(lines)-1]
			want := fmt.Sprintf("total sprint duration:                  %.3f s", c.want)
			if math.IsInf(c.want, 1) {
				want = "sprint is SUSTAINABLE: the chip never reaches the thermal limit"
			}
			if last != want {
				t.Errorf("%s -scheme %s prints %q, the duration registry result holds %q", row.Benchmark, c.scheme, last, want)
			}
		}
	}
}

// TestRunRejectsBadInputs: every bad flag value is an error naming the
// input, never a panic, a hang or a report of NaN or infinite durations.
func TestRunRejectsBadInputs(t *testing.T) {
	for _, c := range []struct {
		name string
		set  func(*options)
		want string
	}{
		{"unknown mode", func(o *options) { o.mode = "bogus" }, `"bogus"`},
		{"unknown scheme", func(o *options) { o.scheme = "bogus" }, `"bogus"`},
		{"unknown benchmark", func(o *options) { o.benchmark = "bogus" }, `"bogus"`},
		{"level 0", func(o *options) { o.mode, o.level = "heatmap", 0 }, "level 0"},
		{"level 17", func(o *options) { o.mode, o.level = "heatmap", 17 }, "level 17"},
		{"NaN power", func(o *options) { o.power = math.NaN() }, "power NaN"},
		{"infinite power", func(o *options) { o.power = math.Inf(1) }, "power +Inf"},
		{"infinite timeline power", func(o *options) { o.mode, o.power = "timeline", math.Inf(1) }, "power +Inf"},
		{"negative power", func(o *options) { o.power = -5 }, "power -5"},
		{"NaN horizon", func(o *options) { o.mode, o.horizon = "timeline", math.NaN() }, "horizon NaN"},
		{"zero dt", func(o *options) { o.mode, o.dt = "timeline", 0 }, "dt 0"},
	} {
		o := defaults()
		c.set(&o)
		out, err := o.run()
		if err == nil {
			t.Errorf("%s: accepted:\n%s", c.name, out)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name the input (%s)", c.name, err, c.want)
		}
	}
}

// TestBinaryExitStatus runs the built thermsim as a process. Each good run
// exits 0; each bad input exits with status 1 and a "thermsim: " error line,
// not a panic (status 2).
func TestBinaryExitStatus(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := filepath.Join(t.TempDir(), "thermsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	errLine := regexp.MustCompile(`(?m)^thermsim: `)
	for _, c := range []struct {
		args   string
		status int
	}{
		{"-mode phases -benchmark dedup -scheme full", 0},
		{"-mode phases -benchmark dedup -scheme fine", 0},
		{"-mode timeline -benchmark dedup -dt 1e-3 -horizon 5", 0},
		{"-mode heatmap -level 4 -floorplan", 0},
		{"-mode timeline -horizon NaN", 1},
		{"-mode phases -power Inf", 1},
		{"-mode timeline -power Inf", 1},
	} {
		var stderr bytes.Buffer
		cmd := exec.Command(bin, strings.Fields(c.args)...)
		cmd.Stderr = &stderr
		status := 0
		var exit *exec.ExitError
		if err := cmd.Run(); errors.As(err, &exit) {
			status = exit.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		switch {
		case status != c.status:
			t.Errorf("thermsim %s: exit status %d, want %d\n%s", c.args, status, c.status, stderr.Bytes())
		case status == 1 && !errLine.Match(stderr.Bytes()):
			t.Errorf("thermsim %s: no %q error line on stderr:\n%s", c.args, "thermsim: ", stderr.Bytes())
		}
	}
}
