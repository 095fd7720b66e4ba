package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"nocsprint/internal/core"
)

// The tests in this file and in daemon_test.go run the built nocsprint and
// nocsprintd as child processes, the way a user does: through their flags,
// signals, files and HTTP endpoints. They skip under -short.

// binDir holds the commands under test, each built once per test process by
// binary; TestMain makes and removes it.
var binDir string

// build is one command's build: the path of its binary, or the error.
type build struct {
	once sync.Once
	path string
	err  error
}

// builds are the commands binary builds, by name.
var builds = map[string]*build{"nocsprint": {}, "nocsprintd": {}}

func TestMain(m *testing.M) {
	var err error
	if binDir, err = os.MkdirTemp("", "nocsprint-bin-"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(binDir)
	os.Exit(code)
}

// binary returns the path of the built command name, nocsprint or
// nocsprintd, building it on first use.
func binary(t *testing.T, name string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	b := builds[name]
	b.once.Do(func() {
		b.path = filepath.Join(binDir, name)
		if out, err := exec.Command("go", "build", "-o", b.path, "nocsprint/cmd/"+name).CombinedOutput(); err != nil {
			b.err = fmt.Errorf("go build %s: %v\n%s", name, err, out)
		}
	})
	if b.err != nil {
		t.Fatal(b.err)
	}
	return b.path
}

// syncBuffer collects a child's output while the test reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// child is one run of a built command.
type child struct {
	name           string
	cmd            *exec.Cmd
	stdout, stderr syncBuffer
	done           chan struct{} // closed once cmd.Wait returns
	err            error         // cmd.Wait's result, set before done closes
}

// start runs the built command name with args in a fresh working
// directory. The test's cleanup kills and reaps it, so it never outlives
// the test, failed or not.
func start(t *testing.T, name string, args ...string) *child {
	t.Helper()
	c := &child{name: name, cmd: exec.Command(binary(t, name), args...), done: make(chan struct{})}
	c.cmd.Dir = t.TempDir()
	c.cmd.Stdout, c.cmd.Stderr = &c.stdout, &c.stderr
	if err := c.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		c.err = c.cmd.Wait()
		close(c.done)
	}()
	t.Cleanup(func() {
		_ = c.cmd.Process.Kill() // fails only once the child has exited
		<-c.done
	})
	return c
}

// await polls cond until it holds. It fails the test if the child exits
// first or a minute passes.
func (c *child) await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.After(time.Minute)
	for !cond() {
		select {
		case <-c.done:
			t.Fatalf("%s exited (%v) before %s; stderr:\n%s", c.name, c.err, what, c.stderr.String())
		case <-deadline:
			t.Fatalf("no %s after a minute; stderr:\n%s", what, c.stderr.String())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// address waits for the child to print a line re matches on stderr and
// returns re's first submatch.
func (c *child) address(t *testing.T, re *regexp.Regexp) string {
	t.Helper()
	var m []string
	c.await(t, "a line matching "+re.String(), func() bool {
		m = re.FindStringSubmatch(c.stderr.String())
		return m != nil
	})
	return m[1]
}

// exitStatus waits for the child to exit and returns its exit status.
func (c *child) exitStatus(t *testing.T) int {
	t.Helper()
	select {
	case <-c.done:
	case <-time.After(time.Minute):
		t.Fatalf("%s still running after a minute; stderr:\n%s", c.name, c.stderr.String())
	}
	var exit *exec.ExitError
	if errors.As(c.err, &exit) {
		return exit.ExitCode()
	}
	if c.err != nil {
		t.Fatal(c.err)
	}
	return 0
}

// interrupt sends the child SIGINT and returns its exit status.
func (c *child) interrupt(t *testing.T) int {
	t.Helper()
	if err := c.cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	return c.exitStatus(t)
}

// journalRecords counts the records a running sweep has journaled at path:
// the newline-terminated lines after the header. No journal yet counts 0.
func journalRecords(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	return max(bytes.Count(data, []byte("\n"))-1, 0)
}

// client bounds each request made of a child's HTTP endpoint.
var client = &http.Client{Timeout: 5 * time.Second}

// call makes one request of a child's HTTP endpoint and returns the
// response body, failing the test unless the status is want.
func call(t *testing.T, method, url, body string, want int) []byte {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != want {
		t.Fatalf("%s %s: status %d, want %d: %s", method, url, resp.StatusCode, want, data)
	}
	return data
}

var (
	monitorAddr = regexp.MustCompile(`monitoring on (http://\S+)/debug/vars`)
	resumeHint  = regexp.MustCompile(`(?m)^nocsprint: resume with: nocsprint (.*)$`)
)

// TestBinaryExitStatus: a good run exits 0, a bad command line 2 with the
// usage printed once, and an experiment the CLI cannot run 1 with a
// "nocsprint: " error line.
func TestBinaryExitStatus(t *testing.T) {
	t.Parallel()
	errLine := regexp.MustCompile(`(?m)^nocsprint: `)
	usageLine := regexp.MustCompile(`(?m)^usage: `)
	for _, c := range []struct {
		args           string
		status, usages int
	}{
		{"table1", 0, 0},
		{"-nonesuch fig11", 2, 1},
		{"nonesuch", 1, 1},
		{"-json trace", 1, 0},
	} {
		p := start(t, "nocsprint", strings.Fields(c.args)...)
		status, stderr := p.exitStatus(t), p.stderr.String()
		switch usages := len(usageLine.FindAllString(stderr, -1)); {
		case status != c.status:
			t.Errorf("nocsprint %s: exit status %d, want %d\n%s", c.args, status, c.status, stderr)
		case usages != c.usages:
			t.Errorf("nocsprint %s: %d usage line(s), want %d\n%s", c.args, usages, c.usages, stderr)
		case status != 0 && !errLine.MatchString(stderr):
			t.Errorf("nocsprint %s: no %q error line on stderr:\n%s", c.args, "nocsprint: ", stderr)
		}
	}
}

// TestInterruptAndResume holds a checkpointed full-window fig11 sweep (28
// points) to the first-SIGINT contract, and its -http endpoint to serving
// mid-run. While the sweep runs, /debug/vars counts its 28 points and the
// pprof index answers. SIGINT stops it with a strict part of the sweep
// journaled and a non-zero exit. A -resume run says it resumed from those
// records and prints an uninterrupted run's output byte for byte. One
// worker keeps the sweep running about 3 s, so the signal lands mid-sweep;
// the worker count and -check change no result, so the resumed and the
// uninterrupted runs use every core and no checker.
func TestInterruptAndResume(t *testing.T) {
	t.Parallel()
	const points = 28
	dir := t.TempDir()
	jpath := filepath.Join(dir, "fig11.journal")
	c := start(t, "nocsprint", "fig11", "-check", "-json", "-checkpoint", dir, "-workers", "1", "-http", "127.0.0.1:0")

	base := c.address(t, monitorAddr)
	c.await(t, fmt.Sprintf("sweep_total %d at /debug/vars", points), func() bool {
		var vars struct {
			SweepTotal int `json:"sweep_total"`
		}
		body := call(t, http.MethodGet, base+"/debug/vars", "", http.StatusOK)
		return json.Unmarshal(body, &vars) == nil && vars.SweepTotal == points
	})
	call(t, http.MethodGet, base+"/debug/pprof/", "", http.StatusOK)

	c.await(t, "3 journal records", func() bool { return journalRecords(jpath) >= 3 })
	if status := c.interrupt(t); status == 0 {
		t.Fatalf("interrupted run exited 0; stderr:\n%s", c.stderr.String())
	}
	saved := len(journalKeys(t, jpath))
	if saved >= points {
		t.Fatalf("interrupted journal holds %d records, want fewer than %d", saved, points)
	}

	resumed := start(t, "nocsprint", "fig11", "-json", "-checkpoint", dir, "-resume")
	uninterrupted := start(t, "nocsprint", "fig11", "-json")
	for _, p := range []*child{resumed, uninterrupted} {
		if status := p.exitStatus(t); status != 0 {
			t.Fatalf("exit status %d; stderr:\n%s", status, p.stderr.String())
		}
	}
	if want := fmt.Sprintf("nocsprint: resuming: %d journal record(s) in %s", saved, jpath); !strings.Contains(resumed.stderr.String(), want) {
		t.Errorf("resumed run does not say %q; stderr:\n%s", want, resumed.stderr.String())
	}
	if got, want := resumed.stdout.String(), uninterrupted.stdout.String(); got != want {
		t.Errorf("resumed output differs from the uninterrupted run's: %s", firstDiff([]byte(got), []byte(want)))
	}
	if n := len(journalKeys(t, jpath)); n != points {
		t.Errorf("resumed journal holds %d records, want %d", n, points)
	}
}

// TestResumeHintRepeatsCommand interrupts a checkpointed -fast -json sweep
// and runs the resume command it prints exactly as printed. That command
// repeats the interrupted one with -resume, so it reuses the saved records
// and prints what an uninterrupted -fast -json run prints, and the run's
// own journal, fig11.fast.journal, ends with exactly the sweep's points.
// -refstep on one worker slows each of fig11's -fast points to about 0.1 s,
// so the signal lands mid-sweep; neither enters point keys.
func TestResumeHintRepeatsCommand(t *testing.T) {
	t.Parallel()
	points := len(readRegistryGolden(t, "fig11").Keys)
	dir := t.TempDir()
	jpath := filepath.Join(dir, "fig11.fast.journal")
	c := start(t, "nocsprint", "fig11", "-fast", "-json", "-refstep", "-workers", "1", "-checkpoint", dir)
	c.await(t, "a journal record", func() bool { return journalRecords(jpath) >= 1 })
	if status := c.interrupt(t); status == 0 {
		t.Fatalf("interrupted run exited 0; stderr:\n%s", c.stderr.String())
	}
	if saved := len(journalKeys(t, jpath)); saved >= points {
		t.Fatalf("interrupted journal holds %d records, want fewer than %d", saved, points)
	}
	m := resumeHint.FindStringSubmatch(c.stderr.String())
	if m == nil {
		t.Fatalf("interrupted run printed no resume command; stderr:\n%s", c.stderr.String())
	}

	resumed := start(t, "nocsprint", strings.Fields(m[1])...)
	if status := resumed.exitStatus(t); status != 0 {
		t.Fatalf("nocsprint %s: exit status %d; stderr:\n%s", m[1], status, resumed.stderr.String())
	}
	var want bytes.Buffer
	if err := run("fig11", options{fast: true, json: true}, core.NetSimParams{}, &want); err != nil {
		t.Fatal(err)
	}
	if got := resumed.stdout.String(); got != want.String() {
		t.Errorf("nocsprint %s prints other output than an uninterrupted -fast -json run: %s",
			m[1], firstDiff([]byte(got), want.Bytes()))
	}
	if n := len(journalKeys(t, jpath)); n != points {
		t.Errorf("after nocsprint %s the journal holds %d records, want the sweep's %d", m[1], n, points)
	}
}

// TestTelemetryFiles: -obs writes each simulation's telemetry under
// -obs-out as a JSONL stream, opened by its meta record, and a CSV table.
func TestTelemetryFiles(t *testing.T) {
	t.Parallel()
	dir := filepath.Join(t.TempDir(), "obs")
	c := start(t, "nocsprint", "fig11", "-fast", "-check", "-obs", "-obs-out", dir)
	if status := c.exitStatus(t); status != 0 {
		t.Fatalf("exit status %d; stderr:\n%s", status, c.stderr.String())
	}
	for _, name := range []string{"fig11_l4_r00_noc.jsonl", "fig11_l4_r00_noc.csv"} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
			t.Errorf("telemetry file %s missing or empty (%v)", name, err)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig11_l4_r00_noc.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	first, _, _ := bytes.Cut(data, []byte("\n"))
	var rec struct{ Type string }
	if err := json.Unmarshal(first, &rec); err != nil || rec.Type != "meta" {
		t.Errorf("first JSONL record is not a meta record (%v): %.200s", err, first)
	}
}
