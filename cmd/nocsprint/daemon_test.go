package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"nocsprint/internal/ckpt"
	"nocsprint/internal/serve"
)

// The tests in this file run the built nocsprintd through the harness in
// binary_test.go, over its flags, its job API and its state directory. Each
// binds 127.0.0.1:0 in its own temp dirs, so they run in parallel with the
// rest of the package.

var apiAddr = regexp.MustCompile(`job API on (http://\S+)/v1/jobs`)

// submit posts spec to the job API at api and returns the new job's ID.
func submit(t *testing.T, api, spec string) string {
	t.Helper()
	var job serve.Job
	if err := json.Unmarshal(call(t, http.MethodPost, api+"/v1/jobs", spec, http.StatusAccepted), &job); err != nil {
		t.Fatal(err)
	}
	return job.ID
}

// result waits for the daemon c to finish job id and returns its raw result
// bytes. It fails the test if the job ends in another state or the daemon
// does not know it.
func (c *child) result(t *testing.T, api, id string) []byte {
	t.Helper()
	c.await(t, "job "+id+" done", func() bool {
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

// TestDaemonExitStatus: a bad flag value exits 2, and an address the
// daemon cannot listen on exits 1, each with a "nocsprintd: " line.
func TestDaemonExitStatus(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		args   []string
		status int
	}{
		{[]string{"-queue", "0"}, 2},
		// An invalid port fails the listen without a DNS lookup.
		{[]string{"-addr", "127.0.0.1:99999", "-state", filepath.Join(t.TempDir(), "state")}, 1},
	} {
		d := start(t, "nocsprintd", c.args...)
		if status := d.exitStatus(t); status != c.status {
			t.Errorf("nocsprintd %v: exit status %d, want %d\n%s", c.args, status, c.status, d.stderr.String())
		} else if !strings.HasPrefix(d.stderr.String(), "nocsprintd: ") {
			t.Errorf("nocsprintd %v: no %q line on stderr:\n%s", c.args, "nocsprintd: ", d.stderr.String())
		}
	}
}

// TestKillRestartResumes SIGKILLs the daemon mid-job and restarts it on the
// same state directory. A restart that cannot bind its address exits 1
// before it recovers anything: it logs no recovered job, and the job's
// record and journal keep their bytes. A restart that binds resumes the job
// from every point its journal holds, finishes it, and serves result bytes
// equal to an uninterrupted job's. The job is a full-window fig11 sweep (28
// points) on one worker, so the kill lands mid-sweep; the worker count and
// the checker change no result, so the uninterrupted job uses every core
// and no checker.
func TestKillRestartResumes(t *testing.T) {
	t.Parallel()
	const points = 28
	state := filepath.Join(t.TempDir(), "state")
	d := start(t, "nocsprintd", "-addr", "127.0.0.1:0", "-state", state)
	id := submit(t, d.address(t, apiAddr), `{"experiment":"fig11","check":true,"workers":1}`)
	jpath := filepath.Join(state, "jobs", id, "sweep.journal")
	d.await(t, "3 journal records", func() bool { return journalRecords(jpath) >= 3 })
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

	rpath := filepath.Join(state, "jobs", id, "job.json")
	record, err := os.ReadFile(rpath)
	if err != nil {
		t.Fatal(err)
	}
	// An invalid port fails the listen without a DNS lookup.
	unbound := start(t, "nocsprintd", "-addr", "127.0.0.1:99999", "-state", state)
	if status := unbound.exitStatus(t); status != 1 || strings.Contains(unbound.stderr.String(), "serve: recovered job") {
		t.Errorf("a restart that cannot listen: exit status %d, want 1 with no job recovered; log:\n%s", status, unbound.stderr.String())
	}
	for path, want := range map[string][]byte{jpath: data, rpath: record} {
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Errorf("a restart that cannot listen changed %s (%v)", path, err)
		}
	}

	d = start(t, "nocsprintd", "-addr", "127.0.0.1:0", "-state", state)
	api := d.address(t, apiAddr)
	recovered := d.result(t, api, id)
	if want := fmt.Sprintf("serve: job %s resuming with %d journaled point(s)", id, len(records)); !strings.Contains(d.stderr.String(), want) {
		t.Errorf("restarted daemon does not log %q; log:\n%s", want, d.stderr.String())
	}
	uninterrupted := d.result(t, api, submit(t, api, `{"experiment":"fig11","workers":0}`))
	if !bytes.Equal(recovered, uninterrupted) {
		t.Errorf("recovered result differs from an uninterrupted job's:\nrecovered:     %.200s\nuninterrupted: %.200s", recovered, uninterrupted)
	}
}
