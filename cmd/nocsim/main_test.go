package main

import (
	"bytes"
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
