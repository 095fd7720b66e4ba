package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nocsprint/internal/core"
)

// defaultOpts is the options value an empty flag line parses to; tests build
// expectations by mutating a copy.
func defaultOpts(mut func(*options)) options {
	o := options{
		obsInterval: 1000, obsOut: "obs",
		traceOut: "trace.jsonl",
	}
	if mut != nil {
		mut(&o)
	}
	return o
}

// TestParseArgsTrailingFlags is the regression test for the CLI bug where
// flags placed after the experiment name were silently ignored
// ("nocsprint fig11 -fast" ran the slow sweep): flags must be honored on
// both sides of the experiment.
func TestParseArgsTrailingFlags(t *testing.T) {
	cases := []struct {
		args []string
		want options
		exp  string
	}{
		{[]string{"fig11"}, defaultOpts(nil), "fig11"},
		{[]string{"-fast", "fig11"}, defaultOpts(func(o *options) { o.fast = true }), "fig11"},
		{[]string{"fig11", "-fast"}, defaultOpts(func(o *options) { o.fast = true }), "fig11"},
		{[]string{"fig11", "-fast", "-json"}, defaultOpts(func(o *options) { o.fast, o.json = true, true }), "fig11"},
		{[]string{"-json", "fig11", "-fast"}, defaultOpts(func(o *options) { o.fast, o.json = true, true }), "fig11"},
		{[]string{"fig11", "-workers", "4"}, defaultOpts(func(o *options) { o.workers = 4 }), "fig11"},
		{[]string{"-workers=2", "all", "-fast"}, defaultOpts(func(o *options) { o.fast, o.workers = true, 2 }), "all"},
		{[]string{"-obs", "fig11", "-obs-interval", "500"},
			defaultOpts(func(o *options) { o.obs, o.obsInterval = true, 500 }), "fig11"},
		{[]string{"fig11", "-obs", "-obs-out", "telemetry"},
			defaultOpts(func(o *options) { o.obs, o.obsOut = true, "telemetry" }), "fig11"},
		{[]string{"-http", ":0", "fig11"}, defaultOpts(func(o *options) { o.httpAddr = ":0" }), "fig11"},
		{[]string{"trace", "-trace-out", "t.jsonl"}, defaultOpts(func(o *options) { o.traceOut = "t.jsonl" }), "trace"},
	}
	for _, c := range cases {
		got, exp, err := parseArgs(c.args, io.Discard)
		if err != nil {
			t.Errorf("parseArgs(%v): %v", c.args, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) || exp != c.exp {
			t.Errorf("parseArgs(%v) = %+v, %q; want %+v, %q", c.args, got, exp, c.want, c.exp)
		}
	}
}

func TestParseArgsErrors(t *testing.T) {
	cases := [][]string{
		{},                               // no experiment
		{"-fast"},                        // flags only
		{"fig11", "extra"},               // stray positional after experiment
		{"fig11", "-fast", "extra"},      // stray positional after trailing flags
		{"fig11", "-nonesuch"},           // unknown trailing flag
		{"-nonesuch", "fig11"},           // unknown leading flag
		{"fig11", "-workers", "-2"},      // negative worker count
		{"fig11", "-obs-interval", "0"},  // sampling interval below 1
		{"fig11", "-obs-interval", "-3"}, // negative interval
	}
	for _, args := range cases {
		if _, _, err := parseArgs(args, io.Discard); err == nil {
			t.Errorf("parseArgs(%v): no error", args)
		}
	}
}

// TestParseArgsHelp: -h prints the usage line, every defined flag with each
// line of its help, and every experiment the CLI runs.
func TestParseArgsHelp(t *testing.T) {
	var sb strings.Builder
	_, _, err := parseArgs([]string{"-h"}, &sb)
	if err != flag.ErrHelp {
		t.Fatalf("parseArgs(-h) err = %v, want flag.ErrHelp", err)
	}
	help := sb.String()
	want := []string{"usage: nocsprint [flags] <experiment> [flags]"}
	newFlagSet(new(options), io.Discard).VisitAll(func(f *flag.Flag) {
		name, text := flag.UnquoteUsage(f)
		want = append(want, strings.TrimSpace("  -"+f.Name+" "+name))
		want = append(want, strings.Split(text, "\n")...)
	})
	for _, e := range core.Experiments() {
		want = append(want, fmt.Sprintf("  %-9s %s\n", e.Name, e.Summary))
	}
	want = append(want, "  trace ", "  all ", strings.Join(allExperiments, " "))
	for _, w := range want {
		if !strings.Contains(help, w) {
			t.Errorf("-h output lacks %q", w)
		}
	}
	if t.Failed() {
		t.Logf("-h output:\n%s", help)
	}
}

// TestParseArgsUsageOnce: a bad command line prints one error line and the
// usage once, and -h the usage alone.
func TestParseArgsUsageOnce(t *testing.T) {
	cases := []struct {
		args   []string
		errors int
	}{
		{[]string{"-nonesuch", "fig11"}, 1}, // unknown flag
		{[]string{}, 1},                     // missing experiment
		{[]string{"fig11", "-resume"}, 1},   // -resume without -checkpoint
		{[]string{"-h"}, 0},
	}
	for _, c := range cases {
		var out strings.Builder
		if _, _, err := parseArgs(c.args, &out); err == nil {
			t.Errorf("parseArgs(%v): no error", c.args)
			continue
		}
		usages, errors := 0, 0
		for _, line := range strings.Split(out.String(), "\n") {
			switch {
			case strings.HasPrefix(line, "usage: "):
				usages++
			case strings.HasPrefix(line, "nocsprint: "):
				errors++
			}
		}
		if usages != 1 || errors != c.errors {
			t.Errorf("parseArgs(%v) printed %d usage(s) and %d error line(s), want 1 and %d:\n%s",
				c.args, usages, errors, c.errors, out.String())
		}
	}
}

// TestResumeCommand: the command an interrupted run prints repeats its
// arguments, each single-quoted only where the shell would split or expand
// it, and adds -resume unless the run had it.
func TestResumeCommand(t *testing.T) {
	for _, c := range []struct {
		args   []string
		resume bool
		want   string
	}{
		{[]string{"fig11", "-fast", "-json", "-workers", "1", "-checkpoint", "ck"}, false,
			"nocsprint fig11 -fast -json -workers 1 -checkpoint ck -resume"},
		{[]string{"-checkpoint=/tmp/ck", "fig11", "-resume", "-timeout", "90s"}, true,
			"nocsprint -checkpoint=/tmp/ck fig11 -resume -timeout 90s"},
		{[]string{"fig11", "-checkpoint", "my ck", "-obs-out", "it's", "-trace-out", "", "-http", "$HOST:0"}, false,
			`nocsprint fig11 -checkpoint 'my ck' -obs-out 'it'\''s' -trace-out '' -http '$HOST:0' -resume`},
	} {
		if got := resumeCommand(c.args, c.resume); got != c.want {
			t.Errorf("resumeCommand(%q, %v) = %s, want %s", c.args, c.resume, got, c.want)
		}
	}
}

// TestTraceRoundTrip runs the trace experiment in process: it writes the
// trace to -trace-out and reports that its replay of that file drained.
func TestTraceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	var out strings.Builder
	if err := run("trace", defaultOpts(func(o *options) { o.traceOut = path }), core.NetSimParams{}, &out); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Errorf("trace file missing or empty (%v)", err)
	}
	if !strings.Contains(out.String(), "drained=true") {
		t.Errorf("the replay did not drain:\n%s", out.String())
	}
}
