package main

import (
	"bytes"
	"errors"
	"math"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runLevel runs the default 4x4 configuration with short windows at the
// given sprint level.
func runLevel(level int) (string, error) {
	var out bytes.Buffer
	err := run(&out, 4, 4, 4, 4, 5, level, "uniform", 0.2, 200, 500, 5000, 1, 1.0, 2e9)
	return out.String(), err
}

// TestRunRejectsBadLevels: a level outside 0 and [2, width*height] is an
// error, never a panic or a silent full-mesh run.
func TestRunRejectsBadLevels(t *testing.T) {
	for _, level := range []int{1, 17, -1} {
		out, err := runLevel(level)
		if err == nil {
			t.Errorf("-level %d accepted:\n%s", level, out)
			continue
		}
		if !strings.Contains(err.Error(), "-level") {
			t.Errorf("-level %d: error %q does not name the flag", level, err)
		}
	}
}

// TestRunRejectsBadWindows: a negative warmup or drain, or a measurement
// window under one cycle, is an error naming its flag, not a silent run
// without warmup or a saturated report.
func TestRunRejectsBadWindows(t *testing.T) {
	for _, c := range []struct {
		flag                   string
		warmup, measure, drain int
	}{
		{"-warmup", -5, 500, 5000},
		{"-measure", 200, 0, 5000},
		{"-measure", 200, -3, 5000},
		{"-drain", 200, 500, -5},
	} {
		var out bytes.Buffer
		err := run(&out, 4, 4, 4, 4, 5, 0, "uniform", 0.1, c.warmup, c.measure, c.drain, 1, 1.0, 2e9)
		if err == nil {
			t.Errorf("%s (warmup %d, measure %d, drain %d) accepted:\n%s", c.flag, c.warmup, c.measure, c.drain, out.String())
			continue
		}
		if !strings.Contains(err.Error(), c.flag) {
			t.Errorf("%s: error %q does not name the flag", c.flag, err)
		}
	}
}

// TestRunRejectsBadCorners: a NaN or infinite supply voltage or clock is
// an error naming the corner, not a report of NaN or infinite power.
func TestRunRejectsBadCorners(t *testing.T) {
	for _, c := range []struct {
		name      string
		vdd, freq float64
		want      string
	}{
		{"NaN VDD", math.NaN(), 2e9, "VDD NaN"},
		{"infinite VDD", math.Inf(1), 2e9, "VDD +Inf"},
		{"NaN frequency", 1.0, math.NaN(), "frequency NaN"},
		{"infinite frequency", 1.0, math.Inf(1), "frequency +Inf"},
	} {
		var out bytes.Buffer
		err := run(&out, 4, 4, 4, 4, 5, 0, "uniform", 0.1, 200, 500, 5000, 1, c.vdd, c.freq)
		if err == nil {
			t.Errorf("%s accepted:\n%s", c.name, out.String())
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name the corner (%s)", c.name, err, c.want)
		}
	}
}

// TestRunRejectsOversizeRouters: 13 VCs on 5 ports exceed the router's 64
// input VCs, which is an error, not a panic.
func TestRunRejectsOversizeRouters(t *testing.T) {
	var out bytes.Buffer
	err := run(&out, 4, 4, 13, 4, 5, 0, "uniform", 0.2, 200, 500, 5000, 1, 1.0, 2e9)
	if err == nil {
		t.Fatalf("-vcs 13 accepted:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "13 VCs") {
		t.Errorf("-vcs 13: error %q does not name the VC count", err)
	}
}

// TestRunRejectsOneNodeMesh: a 1x1 mesh has no destination for any
// pattern, which is an error naming the mesh, not a panic in the traffic
// generator.
func TestRunRejectsOneNodeMesh(t *testing.T) {
	for _, pattern := range []string{"uniform", "transpose"} {
		var out bytes.Buffer
		err := run(&out, 1, 1, 4, 4, 5, 0, pattern, 0.2, 200, 500, 5000, 1, 1.0, 2e9)
		if err == nil {
			t.Errorf("1x1 mesh with %s traffic accepted:\n%s", pattern, out.String())
			continue
		}
		if !strings.Contains(err.Error(), "at least 2 nodes") {
			t.Errorf("1x1 mesh with %s traffic: error %q does not name the mesh size", pattern, err)
		}
	}
}

// TestRunSprintRegion drives a valid level-8 region end to end.
func TestRunSprintRegion(t *testing.T) {
	out, err := runLevel(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"(8 routers powered)", "over 8 endpoints", "saturated       false"} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
}

// TestBinaryExitStatus runs the built nocsim as a process. Each good run
// exits 0; each bad input exits with status 1 and a "nocsim: " error line,
// not a panic (status 2).
func TestBinaryExitStatus(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := filepath.Join(t.TempDir(), "nocsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	errLine := regexp.MustCompile(`(?m)^nocsim: `)
	for _, c := range []struct {
		args   string
		status int
	}{
		{"-level 8 -rate 0.2", 0},
		{"-width 8 -height 8 -pattern transpose -rate 0.1", 0},
		{"-level 1", 1},
		{"-vcs 13", 1},
		{"-width 1 -height 1", 1},
		{"-width 1 -height 1 -pattern transpose", 1},
		{"-rate NaN", 1},
		{"-drain -5", 1},
		{"-warmup -5", 1},
		{"-vdd NaN", 1},
		{"-freq Inf", 1},
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
			t.Errorf("nocsim %s: exit status %d, want %d\n%s", c.args, status, c.status, stderr.Bytes())
		case status == 1 && !errLine.Match(stderr.Bytes()):
			t.Errorf("nocsim %s: no %q error line on stderr:\n%s", c.args, "nocsim: ", stderr.Bytes())
		}
	}
}
