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

	"nocsprint/internal/ckpt"
	"nocsprint/internal/serve"
)

// The tests in this file run the built nocsprintd as a child process, over
// its flags, its job API and its state directory. They skip under -short.

// built is the nocsprintd binary, built once per test process by binary
// and removed by TestMain.
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

// binary returns the path of the built nocsprintd, building it on first use.
func binary(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	built.once.Do(func() {
		if built.dir, built.err = os.MkdirTemp("", "nocsprintd-bin-"); built.err != nil {
			return
		}
		built.path = filepath.Join(built.dir, "nocsprintd")
		if out, err := exec.Command("go", "build", "-o", built.path, ".").CombinedOutput(); err != nil {
			built.err = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if built.err != nil {
		t.Fatal(built.err)
	}
	return built.path
}

// syncBuffer collects the daemon's log while the test reads it.
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

// daemon is one run of the built binary.
type daemon struct {
	cmd  *exec.Cmd
	log  syncBuffer    // stderr
	done chan struct{} // closed once cmd.Wait returns
	err  error         // cmd.Wait's result, set before done closes
}

// start runs the binary with args in a fresh working directory. The test's
// cleanup kills and reaps it, so it never outlives the test, failed or not.
func start(t *testing.T, args ...string) *daemon {
	t.Helper()
	d := &daemon{cmd: exec.Command(binary(t), args...), done: make(chan struct{})}
	d.cmd.Dir = t.TempDir()
	d.cmd.Stderr = &d.log
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	t.Cleanup(func() {
		_ = d.cmd.Process.Kill() // fails only once the daemon has exited
		<-d.done
	})
	return d
}

// await polls cond until it holds. It fails the test if the daemon exits
// first or a minute passes.
func (d *daemon) await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.After(time.Minute)
	for !cond() {
		select {
		case <-d.done:
			t.Fatalf("nocsprintd exited (%v) before %s; log:\n%s", d.err, what, d.log.String())
		case <-deadline:
			t.Fatalf("no %s after a minute; log:\n%s", what, d.log.String())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// exitStatus waits for the daemon to exit and returns its exit status.
func (d *daemon) exitStatus(t *testing.T) int {
	t.Helper()
	select {
	case <-d.done:
	case <-time.After(time.Minute):
		t.Fatalf("nocsprintd still running after a minute; log:\n%s", d.log.String())
	}
	var exit *exec.ExitError
	if errors.As(d.err, &exit) {
		return exit.ExitCode()
	}
	if d.err != nil {
		t.Fatal(d.err)
	}
	return 0
}

var apiAddr = regexp.MustCompile(`job API on (http://\S+)/v1/jobs`)

// api waits for the daemon to log its job API's address and returns it.
func (d *daemon) api(t *testing.T) string {
	t.Helper()
	var base string
	d.await(t, "the job API address", func() bool {
		m := apiAddr.FindStringSubmatch(d.log.String())
		if m != nil {
			base = m[1]
		}
		return m != nil
	})
	return base
}

// client bounds each request made of the daemon.
var client = &http.Client{Timeout: 5 * time.Second}

// call makes one request of the daemon and returns the response body,
// failing the test unless the status is want.
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

// submit posts spec and returns the new job's ID.
func submit(t *testing.T, api, spec string) string {
	t.Helper()
	var job serve.Job
	if err := json.Unmarshal(call(t, http.MethodPost, api+"/v1/jobs", spec, http.StatusAccepted), &job); err != nil {
		t.Fatal(err)
	}
	return job.ID
}

// result waits for the job to be done and returns its raw result bytes.
// It fails the test if the job ends in another state or the daemon does
// not know it.
func (d *daemon) result(t *testing.T, api, id string) []byte {
	t.Helper()
	d.await(t, "job "+id+" done", func() bool {
		var job serve.Job
		if err := json.Unmarshal(call(t, http.MethodGet, api+"/v1/jobs/"+id, "", http.StatusOK), &job); err != nil {
			t.Fatal(err)
		}
		if job.State == serve.StateFailed || job.State == serve.StateCancelled {
			t.Fatalf("job %s is %s: %s", id, job.State, job.Error)
		}
		return job.State == serve.StateDone
	})
	return call(t, http.MethodGet, api+"/v1/jobs/"+id+"/result", "", http.StatusOK)
}

// TestBinaryExitStatus: a bad flag value exits 2, and an address the
// daemon cannot listen on exits 1, each with a "nocsprintd: " line.
func TestBinaryExitStatus(t *testing.T) {
	for _, c := range []struct {
		args   []string
		status int
	}{
		{[]string{"-queue", "0"}, 2},
		// An invalid port fails the listen without a DNS lookup.
		{[]string{"-addr", "127.0.0.1:99999", "-state", filepath.Join(t.TempDir(), "state")}, 1},
	} {
		d := start(t, c.args...)
		if status := d.exitStatus(t); status != c.status {
			t.Errorf("nocsprintd %v: exit status %d, want %d\n%s", c.args, status, c.status, d.log.String())
		} else if !strings.HasPrefix(d.log.String(), "nocsprintd: ") {
			t.Errorf("nocsprintd %v: no %q line on stderr:\n%s", c.args, "nocsprintd: ", d.log.String())
		}
	}
}

// TestKillRestartResumes SIGKILLs the daemon mid-job and restarts it on the
// same state directory: the restarted daemon resumes the job from every
// point its journal holds, finishes it, and serves result bytes equal to
// an uninterrupted job's. The job is a full-window fig11 sweep (28 points)
// on one worker, so the kill lands mid-sweep; the worker count and the
// checker change no result, so the uninterrupted job uses every core and
// no checker.
func TestKillRestartResumes(t *testing.T) {
	const points = 28
	state := filepath.Join(t.TempDir(), "state")
	d := start(t, "-addr", "127.0.0.1:0", "-state", state)
	id := submit(t, d.api(t), `{"experiment":"fig11","check":true,"workers":1}`)
	jpath := filepath.Join(state, "jobs", id, "sweep.journal")
	d.await(t, "3 journal records", func() bool {
		data, err := os.ReadFile(jpath)
		return err == nil && bytes.Count(data, []byte("\n"))-1 >= 3
	})
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-d.done
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	records, err := ckpt.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if saved := len(records); saved >= points {
		t.Fatalf("journal holds %d records at the kill, want fewer than %d", saved, points)
	}

	d = start(t, "-addr", "127.0.0.1:0", "-state", state)
	api := d.api(t)
	recovered := d.result(t, api, id)
	if want := fmt.Sprintf("serve: job %s resuming with %d journaled point(s)", id, len(records)); !strings.Contains(d.log.String(), want) {
		t.Errorf("restarted daemon does not log %q; log:\n%s", want, d.log.String())
	}
	uninterrupted := d.result(t, api, submit(t, api, `{"experiment":"fig11","workers":0}`))
	if !bytes.Equal(recovered, uninterrupted) {
		t.Errorf("recovered result differs from an uninterrupted job's:\nrecovered:     %.200s\nuninterrupted: %.200s", recovered, uninterrupted)
	}
}
