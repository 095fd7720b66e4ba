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
func waitState(t *testing.T, s *Server, id string, want JobState) view {
	t.Helper()
	var v view
	waitFor(t, func() bool {
		var ok bool
		v, ok = s.Job(id)
		return ok && v.Job.State == want
	}, fmt.Sprintf("job %s to reach %s (last: %+v)", id, want, v.Job.State))
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
	var got view
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
	if got.Job.State != StateDone || payload.Answer != 42 {
		t.Errorf("GET job = %+v result %s", got.Job, got.Result)
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
	if v := waitState(t, srv, queued, StateCancelled); v.Job.Error == "" {
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
	if !strings.Contains(v.Job.Error, "deadline") {
		t.Errorf("error %q does not mention the deadline", v.Job.Error)
	}
}

// TestPanicIsolation: an injected panicking point becomes a PointError in
// the job record; sibling points keep their results and the daemon serves
// the next job untouched.
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
				out, done, err := runner.MapCtx(sim.Ctx, []int{0, 1, 2, 3}, 4, func(_ context.Context, p int) (int, error) {
					if p == 2 {
						for i := 0; i < 3; i++ {
							<-claimed
						}
						panic("injected point panic")
					}
					claimed <- struct{}{}
					return p, nil
				})
				for i, ok := range done {
					if ok && out[i] == i {
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
		if !strings.Contains(v.Job.Error, want) {
			t.Errorf("job error does not mention %q:\n%s", want, v.Job.Error)
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

// TestRetryVisibleInJobRecord: transient failures are retried under the
// job's policy and every retry lands in the job record and the metrics;
// a budget of 1 disables retry and surfaces the transient error.
func TestRetryVisibleInJobRecord(t *testing.T) {
	counters := make(map[string]*atomic.Int32)
	var mu sync.Mutex
	srv, err := New(Config{
		StateDir: t.TempDir(),
		Retry:    runner.RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond},
		Run: func(spec JobSpec, sim core.NetSimParams) (any, error) {
			mu.Lock()
			key := fmt.Sprint(spec.Seed)
			if counters[key] == nil {
				counters[key] = new(atomic.Int32)
			}
			c := counters[key]
			mu.Unlock()
			// Apply the threaded policy the way core.runPoints does for real
			// sweep points.
			return runner.Retry(sim.Ctx, *sim.Retry, func(context.Context) (any, error) {
				if c.Add(1) <= 2 {
					return nil, MarkTransient(errors.New("simulated resource pressure"))
				}
				return "recovered after retries", nil
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	job, err := srv.Submit(JobSpec{Experiment: "fig11", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	v := waitState(t, srv, job.ID, StateDone)
	if len(v.Job.Retries) != 2 {
		t.Fatalf("job record shows %d retries, want 2: %+v", len(v.Job.Retries), v.Job.Retries)
	}
	for i, ev := range v.Job.Retries {
		if ev.Attempt != i+1 || !strings.Contains(ev.Error, "resource pressure") || ev.Delay == "" {
			t.Errorf("retry event %d incomplete: %+v", i, ev)
		}
	}
	if m := srv.MetricsSnapshot(); m.Retried != 2 {
		t.Errorf("metrics retried = %d, want 2", m.Retried)
	}

	// Spec override: budget 1 = no retries, the transient error surfaces.
	one, err := srv.Submit(JobSpec{Experiment: "fig11", Seed: 2, Retry: &RetrySpec{MaxAttempts: 1}})
	if err != nil {
		t.Fatal(err)
	}
	v = waitState(t, srv, one.ID, StateFailed)
	if len(v.Job.Retries) != 0 || !strings.Contains(v.Job.Error, "resource pressure") {
		t.Errorf("budget-1 job: retries=%v error=%q", v.Job.Retries, v.Job.Error)
	}
}

// journalStub mimics a sweep driver: it funnels points through ckpt.Run so
// completed points are journaled and a restarted job resumes.
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
	out, err := ckpt.Run(sim.Ctx, sim.Journal, keys, 2, func(ctx context.Context, i int) (int, error) {
		d.mu.Lock()
		d.execs[i]++
		d.mu.Unlock()
		if i == d.blockAt {
			if d.ctxware {
				select {
				case <-d.release:
				case <-ctx.Done():
					return 0, fmt.Errorf("point %d interrupted: %w", i, ctx.Err())
				}
			} else {
				<-d.release
			}
		}
		return i*i + int(spec.Seed), nil
	}, nil)
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
	if v, ok := srv1.Job(job.ID); !ok || v.Job.State != StateQueued {
		t.Fatalf("after drain job is %+v, want queued (checkpointed)", v.Job.State)
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
	// SIGKILLed — its job.json still says "running".

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
