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
)

// The tests in this file run the built nocsprint as a child process, the
// way a user does: through its flags, its signals, its files and its -http
// endpoint. They skip under -short.

// built is the nocsprint binary, built once per test process by binary and
// removed by TestMain.
var built struct {
	once sync.Once
	dir  string
	path string
	err  error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if built.dir != "" {
		os.RemoveAll(built.dir)
	}
	os.Exit(code)
}

// binary returns the path of the built nocsprint, building it on first use.
func binary(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	built.once.Do(func() {
		if built.dir, built.err = os.MkdirTemp("", "nocsprint-bin-"); built.err != nil {
			return
		}
		built.path = filepath.Join(built.dir, "nocsprint")
		if out, err := exec.Command("go", "build", "-o", built.path, ".").CombinedOutput(); err != nil {
			built.err = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if built.err != nil {
		t.Fatal(built.err)
	}
	return built.path
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

// child is one run of the built binary.
type child struct {
	cmd            *exec.Cmd
	stdout, stderr syncBuffer
	done           chan struct{} // closed once cmd.Wait returns
	err            error         // cmd.Wait's result, set before done closes
}

// start runs the binary with args in a fresh working directory. The test's
// cleanup kills and reaps it, so it never outlives the test, failed or not.
func start(t *testing.T, args ...string) *child {
	t.Helper()
	c := &child{cmd: exec.Command(binary(t), args...), done: make(chan struct{})}
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
			t.Fatalf("nocsprint exited (%v) before %s; stderr:\n%s", c.err, what, c.stderr.String())
		case <-deadline:
			t.Fatalf("no %s after a minute; stderr:\n%s", what, c.stderr.String())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// exitStatus waits for the child to exit and returns its exit status.
func (c *child) exitStatus(t *testing.T) int {
	t.Helper()
	select {
	case <-c.done:
	case <-time.After(time.Minute):
		t.Fatalf("nocsprint still running after a minute; stderr:\n%s", c.stderr.String())
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

// client bounds each request made of a child's -http endpoint.
var client = &http.Client{Timeout: 5 * time.Second}

// get returns the status and body of a GET of url.
func get(url string) (int, []byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

var (
	monitorAddr = regexp.MustCompile(`monitoring on (http://\S+)/debug/vars`)
	resumeHint  = regexp.MustCompile(`(?m)^nocsprint: resume with: nocsprint (.*)$`)
)

// TestBinaryExitStatus: a good run exits 0, a bad command line 2 with the
// usage printed once, and an experiment the CLI cannot run 1 with a
// "nocsprint: " error line.
func TestBinaryExitStatus(t *testing.T) {
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
		p := start(t, strings.Fields(c.args)...)
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
	const points = 28
	dir := t.TempDir()
	jpath := filepath.Join(dir, "fig11.journal")
	c := start(t, "fig11", "-check", "-json", "-checkpoint", dir, "-workers", "1", "-http", "127.0.0.1:0")

	var base string
	c.await(t, "the monitoring address", func() bool {
		m := monitorAddr.FindStringSubmatch(c.stderr.String())
		if m != nil {
			base = m[1]
		}
		return m != nil
	})
	c.await(t, fmt.Sprintf("sweep_total %d at /debug/vars", points), func() bool {
		var vars struct {
			SweepTotal int `json:"sweep_total"`
		}
		code, body, err := get(base + "/debug/vars")
		return err == nil && code == http.StatusOK && json.Unmarshal(body, &vars) == nil && vars.SweepTotal == points
	})
	if code, _, err := get(base + "/debug/pprof/"); err != nil || code != http.StatusOK {
		t.Errorf("GET /debug/pprof/ mid-run: status %d, error %v; want 200", code, err)
	}

	c.await(t, "3 journal records", func() bool { return journalRecords(jpath) >= 3 })
	if status := c.interrupt(t); status == 0 {
		t.Fatalf("interrupted run exited 0; stderr:\n%s", c.stderr.String())
	}
	saved := len(journalKeys(t, jpath))
	if saved >= points {
		t.Fatalf("interrupted journal holds %d records, want fewer than %d", saved, points)
	}

	resumed := start(t, "fig11", "-json", "-checkpoint", dir, "-resume")
	uninterrupted := start(t, "fig11", "-json")
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

// TestResumeHintKeepsFast interrupts a -fast sweep and runs the resume
// command it prints exactly as printed. That command must keep -fast, the
// one flag that enters point keys, so it reuses the saved records: its
// journal ends with exactly the sweep's points and it prints what an
// uninterrupted -fast run prints. -refstep on one worker slows each of
// fig11's -fast points to about 0.1 s, so the signal lands mid-sweep;
// neither enters point keys.
func TestResumeHintKeepsFast(t *testing.T) {
	points := len(readRegistryGolden(t, "fig11").Keys)
	dir := t.TempDir()
	jpath := filepath.Join(dir, "fig11.journal")
	c := start(t, "fig11", "-fast", "-refstep", "-workers", "1", "-checkpoint", dir)
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

	resumed := start(t, strings.Fields(m[1])...)
	if status := resumed.exitStatus(t); status != 0 {
		t.Fatalf("nocsprint %s: exit status %d; stderr:\n%s", m[1], status, resumed.stderr.String())
	}
	var want bytes.Buffer
	if err := run("fig11", options{fast: true}, &want); err != nil {
		t.Fatal(err)
	}
	if got := resumed.stdout.String(); got != want.String() {
		t.Errorf("nocsprint %s prints other output than an uninterrupted -fast run: %s",
			m[1], firstDiff([]byte(got), want.Bytes()))
	}
	if n := len(journalKeys(t, jpath)); n != points {
		t.Errorf("after nocsprint %s the journal holds %d records, want the sweep's %d", m[1], n, points)
	}
}

// TestTelemetryFiles: -obs writes each simulation's telemetry under
// -obs-out as a JSONL stream, opened by its meta record, and a CSV table.
func TestTelemetryFiles(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "obs")
	c := start(t, "fig11", "-fast", "-check", "-obs", "-obs-out", dir)
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
