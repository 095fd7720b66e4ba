package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nocsprint/internal/ckpt"
	"nocsprint/internal/core"
	"nocsprint/internal/runner"
)

// waitFor polls cond until it holds or the test deadline budget is spent.
func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", msg)
}

// waitState polls until the job reaches the wanted state.
func waitState(t *testing.T, s *Server, id string, want JobState) Job {
	t.Helper()
	var v Job
	waitFor(t, func() bool {
		var ok bool
		v, ok = s.Job(id)
		return ok && v.State == want
	}, fmt.Sprintf("job %s to reach %s (last: %+v)", id, want, v.State))
	return v
}

// postJob submits a spec body over HTTP and returns the response.
func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func jobID(t *testing.T, body []byte) string {
	t.Helper()
	var v struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("response %s: %v", body, err)
	}
	if !jobIDPattern.MatchString(v.ID) {
		t.Fatalf("response %s carries malformed job id %q", body, v.ID)
	}
	return v.ID
}

func TestJobLifecycleOverHTTP(t *testing.T) {
	srv, err := New(Config{
		StateDir: t.TempDir(),
		Run: func(spec JobSpec, _ core.NetSimParams) (any, error) {
			return map[string]any{"experiment": spec.Experiment, "answer": 42}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, path := range []string{"/healthz", "/readyz", "/debug/vars"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %v %v", path, resp.StatusCode, err)
		}
		resp.Body.Close()
	}

	resp, body := postJob(t, ts, `{"experiment":"fig11","fast":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST = %d %s, want 202", resp.StatusCode, body)
	}
	id := jobID(t, body)
	waitState(t, srv, id, StateDone)

	resp, err = http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var got Job
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var payload struct {
		Answer int `json:"answer"`
	}
	if err := json.Unmarshal(got.Result, &payload); err != nil {
		t.Fatalf("result %s: %v", got.Result, err)
	}
	if got.State != StateDone || payload.Answer != 42 {
		t.Errorf("GET job = %+v result %s", got, got.Result)
	}

	resp, err = http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := `{"answer":42,"experiment":"fig11"}`; string(raw) != want {
		t.Errorf("raw result = %s, want %s", raw, want)
	}

	// List includes the job; unknown and malformed ids are 404/400.
	resp, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	list, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(list, []byte(id)) {
		t.Errorf("job list %s does not include %s", list, id)
	}
	resp, _ = http.Get(ts.URL + "/v1/jobs/j0123456789abcdef")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
	resp, _ = http.Get(ts.URL + "/v1/jobs/../etc/passwd")
	if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusNotFound &&
		resp.StatusCode != http.StatusMovedPermanently {
		t.Errorf("traversal id = %d, want rejection", resp.StatusCode)
	}
	resp.Body.Close()

	m := srv.MetricsSnapshot()
	if m.Admitted != 1 || m.Done != 1 {
		t.Errorf("metrics = %+v, want admitted=1 done=1", m)
	}
}

func TestSubmitRejectsBadSpecAndOversizedBody(t *testing.T) {
	srv, err := New(Config{
		StateDir:     t.TempDir(),
		MaxBodyBytes: 256,
		Run:          func(JobSpec, core.NetSimParams) (any, error) { return nil, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postJob(t, ts, `{"experiment":"fig11","workres":1}`)
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte("workres")) {
		t.Errorf("typo spec = %d %s, want 400 naming the field", resp.StatusCode, body)
	}
	resp, body = postJob(t, ts, `{"experiment":"fig11","retry":{"max_attempts":3}}`)
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte(`unknown field \"retry\"`)) {
		t.Errorf("spec with retry = %d %s, want 400 naming the field", resp.StatusCode, body)
	}
	big := `{"experiment":"fig11","timeout":"` + strings.Repeat("9", 300) + `s"}`
	resp, body = postJob(t, ts, big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body = %d %s, want 413", resp.StatusCode, body)
	}
}

// TestAdmissionControlSheds: a full queue answers 429 + Retry-After instead
// of growing without bound, and the shed submission leaves no state behind.
func TestAdmissionControlSheds(t *testing.T) {
	release := make(chan struct{})
	srv, err := New(Config{
		StateDir:    t.TempDir(),
		QueueCap:    1,
		Concurrency: 1,
		RetryAfter:  7 * time.Second,
		Run: func(_ JobSpec, sim core.NetSimParams) (any, error) {
			select {
			case <-release:
				return "ok", nil
			case <-sim.Ctx.Done():
				return nil, sim.Ctx.Err()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postJob(t, ts, `{"experiment":"fig11"}`) // occupies the executor
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first job = %d %s", resp.StatusCode, body)
	}
	first := jobID(t, body)
	waitState(t, srv, first, StateRunning)

	resp, body = postJob(t, ts, `{"experiment":"fig11"}`) // fills the queue
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second job = %d %s", resp.StatusCode, body)
	}
	second := jobID(t, body)

	resp, body = postJob(t, ts, `{"experiment":"fig11"}`) // shed
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity job = %d %s, want 429", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After = %q, want \"7\"", got)
	}
	if m := srv.MetricsSnapshot(); m.Shed != 1 || m.Admitted != 2 || m.QueueDepth != 1 {
		t.Errorf("metrics = %+v, want shed=1 admitted=2 queue_depth=1", m)
	}

	close(release)
	waitState(t, srv, first, StateDone)
	waitState(t, srv, second, StateDone)
}

func TestCancelQueuedAndRunning(t *testing.T) {
	release := make(chan struct{})
	srv, err := New(Config{
		StateDir:    t.TempDir(),
		QueueCap:    4,
		Concurrency: 1,
		Run: func(_ JobSpec, sim core.NetSimParams) (any, error) {
			select {
			case <-release:
				return "ok", nil
			case <-sim.Ctx.Done():
				return nil, sim.Ctx.Err()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, body := postJob(t, ts, `{"experiment":"fig11"}`)
	running := jobID(t, body)
	waitState(t, srv, running, StateRunning)
	_, body = postJob(t, ts, `{"experiment":"fig11"}`)
	queued := jobID(t, body)

	doDelete := func(id string) (*http.Response, []byte) {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, b
	}

	resp, b := doDelete(queued)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE queued = %d %s", resp.StatusCode, b)
	}
	if v := waitState(t, srv, queued, StateCancelled); v.Error == "" {
		t.Error("cancelled queued job carries no reason")
	}

	resp, b = doDelete(running)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE running = %d %s", resp.StatusCode, b)
	}
	waitState(t, srv, running, StateCancelled)

	// Cancelling a terminal job conflicts.
	resp, b = doDelete(running)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("DELETE terminal = %d %s, want 409", resp.StatusCode, b)
	}
	if m := srv.MetricsSnapshot(); m.Cancelled != 2 {
		t.Errorf("metrics cancelled = %d, want 2", m.Cancelled)
	}
}

// TestDeadlineFailsJob: the per-job deadline cancels the sweep context and
// the job reports the expiry instead of hanging forever.
func TestDeadlineFailsJob(t *testing.T) {
	srv, err := New(Config{
		StateDir:   t.TempDir(),
		AbortGrace: time.Minute, // escalation must not be what stops it
		Run: func(_ JobSpec, sim core.NetSimParams) (any, error) {
			<-sim.Ctx.Done()
			return nil, fmt.Errorf("sweep stopped: %w", sim.Ctx.Err())
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	job, err := srv.Submit(JobSpec{Experiment: "fig11", Timeout: Duration(50 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	v := waitState(t, srv, job.ID, StateFailed)
	if !strings.Contains(v.Error, "deadline") {
		t.Errorf("error %q does not mention the deadline", v.Error)
	}
}

// TestAbortCancelsInFlightPoints: Abort (second signal / drain timeout)
// cancels the point-level context so even a sweep ignoring the graceful
// context stops.
func TestAbortCancelsInFlightPoints(t *testing.T) {
	started := make(chan struct{})
	srv, err := New(Config{
		StateDir: t.TempDir(),
		Run: func(_ JobSpec, sim core.NetSimParams) (any, error) {
			close(started)
			<-sim.Abort.Done() // ignores the graceful sim.Ctx on purpose
			return nil, fmt.Errorf("aborted mid-point: %w", sim.Abort.Err())
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	job, err := srv.Submit(JobSpec{Experiment: "fig11"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	srv.Abort()
	defer srv.Close()
	waitFor(t, func() bool {
		v, ok := srv.Job(job.ID)
		return ok && v.State != StateRunning
	}, "the wedged job to stop after Abort")
}

// TestPanicIsolation: an injected panicking point becomes a PointError in
// the job record; sibling points are journaled and the daemon serves the
// next job untouched.
func TestPanicIsolation(t *testing.T) {
	var siblingDone atomic.Int32
	srv, err := New(Config{
		StateDir: t.TempDir(),
		Run: func(spec JobSpec, sim core.NetSimParams) (any, error) {
			if spec.Seed == 666 { // the poisoned job
				// The poisoned point panics only once every sibling has been
				// claimed, so the panic cannot race the pool's claim-then-check
				// cancellation out of running them.
				claimed := make(chan struct{}, 3)
				keys := []string{"p0", "p1", "p2", "p3"}
				out, err := runner.Run(sim.Ctx, sim.Journal, keys, 4, nil, func(i int) (int, error) {
					if i == 2 {
						for k := 0; k < 3; k++ {
							<-claimed
						}
						panic("injected point panic")
					}
					claimed <- struct{}{}
					return i, nil
				})
				for i, key := range keys {
					var r int
					if raw, ok := sim.Journal.Lookup(key); ok && json.Unmarshal(raw, &r) == nil && r == i {
						siblingDone.Add(1)
					}
				}
				return out, err
			}
			return "healthy", nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	poisoned, err := srv.Submit(JobSpec{Experiment: "fig11", Seed: 666})
	if err != nil {
		t.Fatal(err)
	}
	v := waitState(t, srv, poisoned.ID, StateFailed)
	for _, want := range []string{"point 2 panicked", "injected point panic"} {
		if !strings.Contains(v.Error, want) {
			t.Errorf("job error does not mention %q:\n%s", want, v.Error)
		}
	}
	if got := siblingDone.Load(); got != 3 {
		t.Errorf("%d sibling points survived the panic, want 3", got)
	}

	healthy, err := srv.Submit(JobSpec{Experiment: "fig11"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, srv, healthy.ID, StateDone)
	if m := srv.MetricsSnapshot(); m.Failed != 1 || m.Done != 1 {
		t.Errorf("metrics = %+v, want failed=1 done=1", m)
	}
}

// journalStub mimics a sweep driver: it funnels points through runner.Run
// so completed points are journaled and a restarted job resumes.
type journalStub struct {
	mu      sync.Mutex
	execs   map[int]int
	blockAt int           // point index to block at (-1: never)
	release chan struct{} // closing unblocks; nil releases never
	ctxware bool          // blocked point also honours ctx cancellation
}

func newJournalStub(blockAt int) *journalStub {
	return &journalStub{execs: make(map[int]int), blockAt: blockAt, release: make(chan struct{})}
}

func (d *journalStub) run(spec JobSpec, sim core.NetSimParams) (any, error) {
	keys := make([]string, 6)
	for i := range keys {
		keys[i] = fmt.Sprintf("pt-%02d", i)
	}
	out, err := runner.Run(sim.Ctx, sim.Journal, keys, 2, nil, func(i int) (int, error) {
		d.mu.Lock()
		d.execs[i]++
		d.mu.Unlock()
		if i == d.blockAt {
			if d.ctxware {
				select {
				case <-d.release:
				case <-sim.Ctx.Done():
					return 0, fmt.Errorf("point %d interrupted: %w", i, sim.Ctx.Err())
				}
			} else {
				<-d.release
			}
		}
		return i*i + int(spec.Seed), nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (d *journalStub) execCount(i int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.execs[i]
}

// TestDrainCheckpointsRunningJob: SIGTERM-style drain stops the sweep
// gracefully, the job re-queues, and a new server on the same state dir
// resumes it from the journal instead of recomputing.
func TestDrainCheckpointsRunningJob(t *testing.T) {
	state := t.TempDir()
	stub1 := newJournalStub(2)
	stub1.ctxware = true
	srv1, err := New(Config{StateDir: state, Run: stub1.run})
	if err != nil {
		t.Fatal(err)
	}
	job, err := srv1.Submit(JobSpec{Experiment: "fig11"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return stub1.execCount(2) >= 1 }, "the sweep to reach the blocked point")

	srv1.Drain()
	if v, ok := srv1.Job(job.ID); !ok || v.State != StateQueued {
		t.Fatalf("after drain job is %+v, want queued (checkpointed)", v.State)
	}
	if !srv1.Draining() {
		t.Error("Draining() = false after Drain")
	}
	srv1.Close()

	stub2 := newJournalStub(-1)
	srv2, err := New(Config{StateDir: state, Run: stub2.run})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if m := srv2.MetricsSnapshot(); m.Recovered != 1 {
		t.Fatalf("metrics recovered = %d, want 1", m.Recovered)
	}
	v := waitState(t, srv2, job.ID, StateDone)
	var got []int
	if err := json.Unmarshal(v.Result, &got); err != nil {
		t.Fatalf("result %s: %v", v.Result, err)
	}
	if want := []int{0, 1, 4, 9, 16, 25}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("resumed result = %v, want %v", got, want)
	}
	// Point 0 completed and was journaled before point 2 was even claimed
	// (same worker goroutine, append-then-claim), so the resumed run must
	// not have recomputed it.
	if n := stub2.execCount(0); n != 0 {
		t.Errorf("resumed run recomputed journaled point 0 (%d times)", n)
	}
}

// TestCrashRestartByteIdentical is the in-process kill -9 equivalent: the
// first server is abandoned mid-job with its executor wedged (nothing is
// flushed or unwound, exactly like a SIGKILL), a second server recovers the
// state directory, resumes the job from its journal, and the result bytes
// must equal an uninterrupted run's exactly.
func TestCrashRestartByteIdentical(t *testing.T) {
	state := t.TempDir()
	stub1 := newJournalStub(2) // wedges at point 2 forever (release never closed)
	srv1, err := New(Config{StateDir: state, Run: stub1.run})
	if err != nil {
		t.Fatal(err)
	}
	job, err := srv1.Submit(JobSpec{Experiment: "fig11", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return stub1.execCount(2) >= 1 }, "the sweep to wedge at point 2")
	// Deliberately no Drain/Close: srv1's executor goroutine stays wedged
	// for the remainder of the test process, like a process that was
	// SIGKILLed — its job.json still says "queued".

	stub2 := newJournalStub(-1)
	srv2, err := New(Config{StateDir: state, Run: stub2.run})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	recovered := waitState(t, srv2, job.ID, StateDone)
	if n := stub2.execCount(0); n != 0 {
		t.Errorf("restart recomputed journaled point 0 (%d times)", n)
	}

	// Uninterrupted golden run of the same spec on a fresh server.
	stub3 := newJournalStub(-1)
	srv3, err := New(Config{StateDir: t.TempDir(), Run: stub3.run})
	if err != nil {
		t.Fatal(err)
	}
	defer srv3.Close()
	golden, err := srv3.Submit(JobSpec{Experiment: "fig11", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	goldenView := waitState(t, srv3, golden.ID, StateDone)

	if !bytes.Equal(recovered.Result, goldenView.Result) {
		t.Errorf("recovered result differs from uninterrupted run:\n%s\n%s", recovered.Result, goldenView.Result)
	}
	// And over HTTP, where the raw-result endpoint serves the bytes verbatim.
	ts2, ts3 := httptest.NewServer(srv2.Handler()), httptest.NewServer(srv3.Handler())
	defer ts2.Close()
	defer ts3.Close()
	fetch := func(ts *httptest.Server, id string) []byte {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET result: %v %v", resp, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return b
	}
	if a, b := fetch(ts2, job.ID), fetch(ts3, golden.ID); !bytes.Equal(a, b) {
		t.Errorf("served result bytes differ:\n%s\n%s", a, b)
	}
}

// getResult fetches a done job's raw result bytes over HTTP.
func getResult(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result of %s = %d %s (%v)", id, resp.StatusCode, b, err)
	}
	return b
}

// TestDoneRecordCarriesResult: a done job's directory holds its record,
// result included, and its journal, nothing else; a restarted server
// serves the same bytes from that record without running anything.
func TestDoneRecordCarriesResult(t *testing.T) {
	state := t.TempDir()
	srv1, err := New(Config{StateDir: state, Run: newJournalStub(-1).run})
	if err != nil {
		t.Fatal(err)
	}
	job, err := srv1.Submit(JobSpec{Experiment: "fig11", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, srv1, job.ID, StateDone)
	ts1 := httptest.NewServer(srv1.Handler())
	served := getResult(t, ts1, job.ID)
	ts1.Close()
	srv1.Close()

	dir := filepath.Join(state, "jobs", job.ID)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if got := strings.Join(names, " "); got != "job.json sweep.journal" {
		t.Errorf("done job's directory holds %q, want job.json and sweep.journal only", got)
	}
	var rec Job
	if err := ckpt.ReadSnapshot(filepath.Join(dir, "job.json"), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.State != StateDone || !bytes.Equal(rec.Result, served) {
		t.Errorf("done record: state %s, result %s; served result %s", rec.State, rec.Result, served)
	}

	srv2, err := New(Config{StateDir: state, Run: func(JobSpec, core.NetSimParams) (any, error) {
		t.Error("the restarted server ran a done job again")
		return nil, errors.New("done jobs do not run")
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	if again := getResult(t, ts2, job.ID); !bytes.Equal(again, served) {
		t.Errorf("restarted server serves %s, want %s", again, served)
	}
	if m := srv2.MetricsSnapshot(); m.Recovered != 0 {
		t.Errorf("restart re-queued %d job(s), want 0", m.Recovered)
	}
}

// TestRecoveryWritesNothing: the record on disk still says queued while
// the job runs, and a restart's recovery leaves it byte for byte as it was.
func TestRecoveryWritesNothing(t *testing.T) {
	state := t.TempDir()
	started := make(chan struct{}, 1)
	srv1, err := New(Config{StateDir: state, Run: func(JobSpec, core.NetSimParams) (any, error) {
		started <- struct{}{}
		select {} // wedged for good, like a process that was SIGKILLed
	}})
	if err != nil {
		t.Fatal(err)
	}
	job, err := srv1.Submit(JobSpec{Experiment: "fig11"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	waitState(t, srv1, job.ID, StateRunning)
	path := filepath.Join(state, "jobs", job.ID, "job.json")
	var rec Job
	if err := ckpt.ReadSnapshot(path, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.State != StateQueued {
		t.Errorf("record on disk says %s while the job runs, want %s", rec.State, StateQueued)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	release := make(chan struct{})
	srv2, err := New(Config{StateDir: state, Run: func(JobSpec, core.NetSimParams) (any, error) {
		<-release
		return "resumed", nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Errorf("recovery rewrote job.json:\nbefore %s\nafter  %s", before, after)
	}
	if m := srv2.MetricsSnapshot(); m.Recovered != 1 {
		t.Errorf("metrics recovered = %d, want 1", m.Recovered)
	}
	close(release)
	waitState(t, srv2, job.ID, StateDone)
}

// TestRecoverySweepsOrphanTemps: a kill -9 between a job record's temp
// write and its rename leaves a `.job.json.tmp-*` orphan beside the record.
// New removes it before reading the record, and still recovers the job.
func TestRecoverySweepsOrphanTemps(t *testing.T) {
	state := t.TempDir()
	rec := Job{ID: "j00000000000000c1", Spec: JobSpec{Experiment: "fig11"}, State: StateQueued,
		Created: time.Date(2020, 1, 2, 3, 4, 5, 0, time.UTC)}
	dir := filepath.Join(state, "jobs", rec.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := ckpt.WriteSnapshot(filepath.Join(dir, "job.json"), &rec); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, ".job.json.tmp-1234567")
	if err := os.WriteFile(orphan, []byte("torn partial record"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{StateDir: state, Run: func(JobSpec, core.NetSimParams) (any, error) { return "ok", nil }})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("orphan temp file survived recovery: %v", err)
	}
	if m := srv.MetricsSnapshot(); m.Recovered != 1 {
		t.Errorf("metrics recovered = %d, want 1", m.Recovered)
	}
	waitState(t, srv, rec.ID, StateDone)
}

// TestDoneRecordWithoutResultReruns: a done record with no result field,
// the layout that kept the result in result.json beside it, is re-queued
// and recomputed from its journal to the same bytes.
func TestDoneRecordWithoutResultReruns(t *testing.T) {
	state := t.TempDir()
	srv1, err := New(Config{StateDir: state, Run: newJournalStub(-1).run})
	if err != nil {
		t.Fatal(err)
	}
	job, err := srv1.Submit(JobSpec{Experiment: "fig11", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	want := waitState(t, srv1, job.ID, StateDone).Result
	srv1.Close()

	dir := filepath.Join(state, "jobs", job.ID)
	var rec Job
	if err := ckpt.ReadSnapshot(filepath.Join(dir, "job.json"), &rec); err != nil {
		t.Fatal(err)
	}
	rec.Result = nil
	if err := ckpt.WriteSnapshot(filepath.Join(dir, "job.json"), &rec); err != nil {
		t.Fatal(err)
	}
	if err := ckpt.WriteSnapshot(filepath.Join(dir, "result.json"), want); err != nil {
		t.Fatal(err)
	}

	var runs atomic.Int32
	stub := newJournalStub(-1)
	srv2, err := New(Config{StateDir: state, Run: func(spec JobSpec, sim core.NetSimParams) (any, error) {
		runs.Add(1)
		return stub.run(spec, sim)
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if m := srv2.MetricsSnapshot(); m.Recovered != 1 {
		t.Errorf("metrics recovered = %d, want 1", m.Recovered)
	}
	got := waitState(t, srv2, job.ID, StateDone)
	if n := runs.Load(); n != 1 {
		t.Errorf("job ran %d time(s) after the restart, want 1", n)
	}
	if !bytes.Equal(got.Result, want) {
		t.Errorf("recomputed result %s, want %s", got.Result, want)
	}
	ts := httptest.NewServer(srv2.Handler())
	defer ts.Close()
	if raw := getResult(t, ts, job.ID); !bytes.Equal(raw, want) {
		t.Errorf("served result %s, want %s", raw, want)
	}
}

// TestRecoveredRecordDropsOldRunTimes: a re-queued record, an older
// daemon's running record or a done record without its result, reads back
// queued without the previous run's started and ended times.
func TestRecoveredRecordDropsOldRunTimes(t *testing.T) {
	state := t.TempDir()
	old := time.Date(2020, 1, 2, 3, 4, 5, 0, time.UTC)
	later := old.Add(time.Minute)
	recs := []Job{
		{ID: "j00000000000000a1", Spec: JobSpec{Experiment: "fig11"}, State: StateRunning, Created: old, Started: &old},
		{ID: "j00000000000000a2", Spec: JobSpec{Experiment: "fig11"}, State: StateDone, Created: later, Started: &later, Ended: &later},
	}
	for i := range recs {
		dir := filepath.Join(state, "jobs", recs[i].ID)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := ckpt.WriteSnapshot(filepath.Join(dir, "job.json"), &recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	release := make(chan struct{})
	srv, err := New(Config{StateDir: state, Run: func(JobSpec, core.NetSimParams) (any, error) {
		<-release
		return "ok", nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// The older record runs first and holds the one executor, so the other
	// waits in the queue.
	running := waitState(t, srv, recs[0].ID, StateRunning)
	if running.Started == nil || !running.Started.After(old) || running.Ended != nil {
		t.Errorf("rerun job started %v, ended %v; want a new start and no end", running.Started, running.Ended)
	}
	if v, _ := srv.Job(recs[1].ID); v.State != StateQueued || v.Started != nil || v.Ended != nil {
		t.Errorf("recovered job reads %s, started %v, ended %v; want queued with neither time", v.State, v.Started, v.Ended)
	}
	close(release)
	waitState(t, srv, recs[1].ID, StateDone)
}

// TestRecordWithRetryFieldsRecovers: a queued record from a daemon that
// still had point-level retry, its spec carrying retry and the record a
// retries list, resumes from its journal and ends done with the bytes of a
// fresh job of the same spec.
func TestRecordWithRetryFieldsRecovers(t *testing.T) {
	state := t.TempDir()
	const id = "j00000000000000b1"
	dir := filepath.Join(state, "jobs", id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Experiment: "fig11", Fast: true, Workers: 1}
	// The drain that re-queued the job had journaled three points.
	j, err := ckpt.Create(filepath.Join(dir, "sweep.journal"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = RunExperiment(spec, core.NetSimParams{Workers: 1, Ctx: ctx, Journal: j, Progress: func(done, _ int) {
		if done == 3 {
			cancel()
		}
	}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("partial sweep: %v, want cancelled", err)
	}
	if j.Len() != 3 {
		t.Fatalf("journal holds %d points, want 3", j.Len())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rec := json.RawMessage(`{"id":"` + id + `","spec":{"experiment":"fig11","fast":true,"workers":1,` +
		`"retry":{"max_attempts":3,"base_delay":"100ms"}},"state":"queued",` +
		`"retries":[{"attempt":1,"delay":"42ms","error":"transient failure: resource pressure"}],` +
		`"created":"2020-01-02T03:04:05Z"}`)
	if err := ckpt.WriteSnapshot(filepath.Join(dir, "job.json"), rec); err != nil {
		t.Fatal(err)
	}

	srv, err := New(Config{StateDir: state})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	recovered := waitState(t, srv, id, StateDone)
	if recovered.Spec != spec {
		t.Errorf("recovered spec %+v, want %+v", recovered.Spec, spec)
	}
	fresh, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if want := waitState(t, srv, fresh.ID, StateDone).Result; !bytes.Equal(recovered.Result, want) {
		t.Errorf("recovered result differs from a fresh job's:\n%s\n%s", recovered.Result, want)
	}
}

// TestCancelFailedWriteLeavesJobQueued: when a queued job's cancelled
// record cannot be written, DELETE answers 500 and the job stays queued,
// uncounted as cancelled, and runs once the executor frees up.
func TestCancelFailedWriteLeavesJobQueued(t *testing.T) {
	state := t.TempDir()
	release := make(chan struct{})
	srv, err := New(Config{
		StateDir:    state,
		Concurrency: 1,
		Run: func(_ JobSpec, sim core.NetSimParams) (any, error) {
			select {
			case <-release:
				return "ok", nil
			case <-sim.Ctx.Done():
				return nil, sim.Ctx.Err()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	first, err := srv.Submit(JobSpec{Experiment: "fig11"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, srv, first.ID, StateRunning)
	queued, err := srv.Submit(JobSpec{Experiment: "fig11"})
	if err != nil {
		t.Fatal(err)
	}
	// A file where the job's directory was makes every record write fail.
	dir := filepath.Join(state, "jobs", queued.ID)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("DELETE with an unwritable record = %d, want 500", resp.StatusCode)
	}
	if v, _ := srv.Job(queued.ID); v.State != StateQueued {
		t.Fatalf("after a failed cancel the job is %s, want %s", v.State, StateQueued)
	}
	if m := srv.MetricsSnapshot(); m.Cancelled != 0 || m.QueueDepth != 1 {
		t.Errorf("metrics = %+v, want cancelled=0 queue_depth=1", m)
	}

	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	close(release)
	waitState(t, srv, queued.ID, StateDone)
}

// TestDrainClosesAdmission: readyz flips to 503 and POST is refused while
// queued jobs stay persisted for the next process.
func TestDrainClosesAdmission(t *testing.T) {
	srv, err := New(Config{
		StateDir: t.TempDir(),
		Run:      func(JobSpec, core.NetSimParams) (any, error) { return "ok", nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	srv.Drain()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining = %v %v, want 503", resp.StatusCode, err)
	}
	resp.Body.Close()
	resp, body := postJob(t, ts, `{"experiment":"fig11"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("POST while draining = %d %s, want 503", resp.StatusCode, body)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("healthz while draining = %v %v, want 200 (process is alive)", resp.StatusCode, err)
	}
	resp.Body.Close()
}

// TestRealExperimentDispatch drives the default RunExperiment path end to
// end with a cheap analytic experiment.
func TestRealExperimentDispatch(t *testing.T) {
	srv, err := New(Config{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	job, err := srv.Submit(JobSpec{Experiment: "fig4"})
	if err != nil {
		t.Fatal(err)
	}
	v := waitState(t, srv, job.ID, StateDone)
	if !bytes.Contains(v.Result, []byte("Benchmark")) {
		t.Errorf("fig4 result looks wrong: %.120s", v.Result)
	}
}

// TestRegistryOnlyExperimentsDispatch runs, as daemon jobs, the experiments
// the daemon could not run before it dispatched through the core registry:
// the topology comparison and the formerly text-only table1 and controller.
func TestRegistryOnlyExperimentsDispatch(t *testing.T) {
	srv, err := New(Config{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for exp, want := range map[string]string{
		"topology":   `"SaturationRate"`,
		"table1":     `"PacketLength":5`,
		"controller": `"Scheme":"NoC-sprinting"`,
	} {
		job, err := srv.Submit(JobSpec{Experiment: exp, Fast: true, Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		v := waitState(t, srv, job.ID, StateDone)
		if !bytes.Contains(v.Result, []byte(want)) {
			t.Errorf("%s result lacks %s: %.160s", exp, want, v.Result)
		}
	}
}
