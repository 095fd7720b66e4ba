package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"nocsprint/internal/core"
	"nocsprint/internal/serve"
	"nocsprint/internal/thermal"
	profile "nocsprint/internal/workload"
)

// The daemon workload drives an in-process sweep daemon over loopback HTTP
// as a closed loop: each client submits a job, polls until it ends, then
// submits the next. Most jobs are analytic and take milliseconds, so the
// per-job cost of HTTP, spec parsing, fsynced job records, journals and
// result snapshots dominates.

// daemonExperiments are cycled through the job list: five analytic
// experiments and three that simulate.
var daemonExperiments = []string{"fig7", "fig8", "fig12", "duration", "dimdark", "faults", "fig11", "fig9"}

const (
	daemonJobs = 160
	seedPool   = 4
	pollEvery  = 2 * time.Millisecond
)

// jobRecord is one job as the client saw it: client-side instants and the
// server-recorded lifecycle.
type jobRecord struct {
	sent, accepted, observed time.Time
	created, started, ended  time.Time
	result                   []byte // compact JSON
}

// jobView decodes GET /v1/jobs/{id}.
type jobView struct {
	serve.Job
	Result json.RawMessage `json:"result"`
}

// daemon is one running server: its state directory, the loopback
// listener in front of it and the clients' HTTP client.
type daemon struct {
	dir    string
	srv    *serve.Server
	hs     *httptest.Server
	client *http.Client
}

// startDaemon starts a server on a fresh state directory behind a loopback
// listener and waits for /readyz.
func startDaemon(c config) (*daemon, error) {
	dir, err := os.MkdirTemp(c.dir, "daemon-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{StateDir: dir, Concurrency: c.workers})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{
		dir: dir,
		srv: srv,
		hs:  httptest.NewServer(srv.Handler()),
		client: &http.Client{
			Timeout:   time.Minute,
			Transport: &http.Transport{MaxConnsPerHost: c.workers, MaxIdleConnsPerHost: c.workers},
		},
	}
	resp, err := d.client.Get(d.hs.URL + "/readyz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("/readyz answered %s", resp.Status)
		}
	}
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *daemon) close() error {
	d.hs.Close()
	d.client.CloseIdleConnections()
	d.srv.Close()
	return os.RemoveAll(d.dir)
}

type daemonInst struct {
	*daemon
	c     config
	specs []serve.JobSpec
}

// setupDaemon starts a daemon and builds the seed-shuffled job list.
func setupDaemon(c config) (instance, error) {
	d, err := startDaemon(c)
	if err != nil {
		return nil, err
	}
	n, exps := daemonJobs, daemonExperiments
	if c.tiny {
		n, exps = 6, daemonExperiments[:6]
	}
	// Each experiment's copies cycle through seedPool seeds, so the
	// simulating jobs average over several inputs while every spec still
	// repeats and must return the same bytes each time.
	specs := make([]serve.JobSpec, n)
	for i := range specs {
		k := int64(i / len(exps) % seedPool)
		specs[i] = serve.JobSpec{Experiment: exps[i%len(exps)], Fast: true, Workers: 1, Seed: c.seed*seedPool + k}
	}
	rand.New(rand.NewSource(c.seed)).Shuffle(n, func(i, k int) { specs[i], specs[k] = specs[k], specs[i] })
	return &daemonInst{daemon: d, c: c, specs: specs}, nil
}

// prepare replaces the server with a fresh one, so every repetition starts
// from an empty job table and state directory.
func (d *daemonInst) prepare() error {
	if err := d.daemon.close(); err != nil {
		return err
	}
	next, err := startDaemon(d.c)
	if err != nil {
		return err
	}
	d.daemon = next
	return nil
}

// errShed marks a submission refused with 429.
var errShed = errors.New("job shed with 429")

// decodeResponse decodes a JSON response and fails on any status but want.
func decodeResponse(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		return errShed
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %s: %s", resp.Request.Method, resp.Request.URL.Path, resp.Status, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}

// do runs job i to completion: submit, poll every pollEvery, collect.
func (d *daemonInst) do(i int) (jobRecord, error) {
	var rec jobRecord
	body, err := json.Marshal(d.specs[i])
	if err != nil {
		return rec, err
	}
	rec.sent = time.Now()
	resp, err := d.client.Post(d.hs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return rec, err
	}
	var v jobView
	if err := decodeResponse(resp, http.StatusAccepted, &v); err != nil {
		return rec, err
	}
	rec.accepted = time.Now()
	for !v.State.Terminal() {
		time.Sleep(pollEvery)
		resp, err := d.client.Get(d.hs.URL + "/v1/jobs/" + v.ID)
		if err != nil {
			return rec, err
		}
		if err := decodeResponse(resp, http.StatusOK, &v); err != nil {
			return rec, err
		}
	}
	rec.observed = time.Now()
	if v.State != serve.StateDone {
		return rec, fmt.Errorf("job %s (%s) ended %s: %s", v.ID, v.Spec.Experiment, v.State, v.Error)
	}
	rec.created, rec.started, rec.ended = v.Created, *v.Started, *v.Ended
	var buf bytes.Buffer
	if err := json.Compact(&buf, v.Result); err != nil {
		return rec, err
	}
	rec.result = buf.Bytes()
	return rec, nil
}

// loop runs every job with one closed-loop client per worker. A job that
// fails counts as a failed operation; the others still run.
func (d *daemonInst) loop() ([]jobRecord, []error, time.Duration) {
	recs := make([]jobRecord, len(d.specs))
	errs := make([]error, len(d.specs))
	start := time.Now()
	parallel(len(d.specs), d.c.workers, func(i int) error {
		recs[i], errs[i] = d.do(i)
		return nil
	})
	return recs, errs, time.Since(start)
}

func (d *daemonInst) run() (outcome, error) {
	recs, errs, wall := d.loop()
	out := outcome{ops: len(recs), result: recs, samples: map[string][]float64{}}
	// Jobs with the same spec must return the same bytes.
	first := map[serve.JobSpec][]byte{}
	h := sha256.New()
	var lat []float64
	shed := 0
	for i, rec := range recs {
		if errors.Is(errs[i], errShed) {
			shed++
		}
		if errs[i] == nil {
			if prev, ok := first[d.specs[i]]; ok && !bytes.Equal(prev, rec.result) {
				errs[i] = fmt.Errorf("job %d (%s) returned other bytes than an identical earlier job", i, d.specs[i].Experiment)
			} else {
				first[d.specs[i]] = rec.result
			}
		}
		if errs[i] != nil {
			out.failed++
			out.errors = append(out.errors, errs[i].Error())
			continue
		}
		h.Write(rec.result)
		h.Write([]byte{'\n'})
		lat = append(lat, ms(rec.ended.Sub(rec.sent)))
	}
	out.digest = hex.EncodeToString(h.Sum(nil))
	out.samples["serve.shed"] = []float64{float64(shed)}
	if len(lat) > 0 {
		out.samples["jobs_per_s"] = []float64{float64(len(recs)) / wall.Seconds()}
		out.samples["job_p50_ms"] = []float64{percentile(lat, 50)}
		// p90 means something only with enough jobs beyond it.
		if p, ok := tailPercentile(len(lat)); ok && p >= 90 {
			out.samples["job_p90_ms"] = []float64{percentile(lat, 90)}
		}
	}
	return out, nil
}

// trace runs one more closed loop and turns each job's instants into spans,
// then times what the jobs spend outside the daemon: the experiments run
// directly, the fig12 heat maps, journaling the results, the floorplan and
// restart recovery.
func (d *daemonInst) trace(tr *tracer, want outcome) (traced, error) {
	if err := d.prepare(); err != nil {
		return traced{}, err
	}
	recs, errs, wall := d.loop()
	for i, err := range errs {
		if err != nil {
			return traced{}, fmt.Errorf("traced job %d: %w", i, err)
		}
	}
	direct := map[serve.JobSpec]float64{}
	out := map[string][]float64{}
	untraced := want.result.([]jobRecord)
	for i, rec := range recs {
		root := tr.beginAt(nil, "client.job", rec.sent)
		tr.add(root, "serve.submit", rec.sent, rec.accepted)
		tr.add(root, "serve.queue_wait", rec.created, rec.started)
		tr.add(root, "serve.run", rec.started, rec.ended)
		tr.endAt(root, rec.observed, "experiment", d.specs[i].Experiment)
		out["serve.submit_ms"] = append(out["serve.submit_ms"], ms(rec.accepted.Sub(rec.sent)))
		out["serve.queue_wait_ms"] = append(out["serve.queue_wait_ms"], ms(rec.started.Sub(rec.created)))
		out["serve.run_ms"] = append(out["serve.run_ms"], ms(rec.ended.Sub(rec.started)))
		if !bytes.Equal(rec.result, untraced[i].result) {
			return traced{}, fmt.Errorf("traced job %d (%s) returned other bytes than the untraced run", i, d.specs[i].Experiment)
		}
		if _, ok := direct[d.specs[i]]; !ok {
			t, err := d.runDirect(tr, d.specs[i], rec.result)
			if err != nil {
				return traced{}, err
			}
			direct[d.specs[i]] = t
		}
	}
	for i, rec := range recs {
		out["serve.overhead_ms"] = append(out["serve.overhead_ms"], ms(rec.ended.Sub(rec.sent))-direct[d.specs[i]])
	}

	s, err := core.New(core.DefaultConfig())
	if err != nil {
		return traced{}, err
	}
	if err := d.traceHeatMaps(tr, s, recs, out); err != nil {
		return traced{}, err
	}
	fp, err := traceFloorplan(tr, s)
	if err != nil {
		return traced{}, err
	}
	merge(out, fp)
	payloads := make([]any, len(recs))
	for i, rec := range recs {
		payloads[i] = json.RawMessage(rec.result)
	}
	ck, err := traceCkpt(tr, d.c.dir, "daemon", s.Config(), d.c.seed, payloads)
	if err != nil {
		return traced{}, err
	}
	merge(out, ck)

	sp := tr.begin(nil, "serve.New")
	start := time.Now()
	again, err := serve.New(serve.Config{StateDir: d.dir, Concurrency: d.c.workers})
	el := time.Since(start)
	tr.end(sp, "jobs", len(recs))
	if err != nil {
		return traced{}, fmt.Errorf("recovering the state directory: %w", err)
	}
	again.Close()
	out["serve.recover_ms"] = []float64{ms(el)}
	return traced{wall: wall, samples: out}, nil
}

// runDirect runs spec's experiment without the daemon, as its executor
// would, checks it returns the job's bytes, and returns its median time
// over three calls in milliseconds.
func (d *daemonInst) runDirect(tr *tracer, spec serve.JobSpec, want []byte) (float64, error) {
	var times []float64
	for k := 0; k < 3; k++ {
		sp := tr.begin(nil, "serve.RunExperiment")
		start := time.Now()
		res, err := serve.RunExperiment(spec, core.NetSimParams{Workers: spec.Workers, Seed: spec.Seed})
		el := time.Since(start)
		tr.end(sp, "experiment", spec.Experiment)
		if err != nil {
			return 0, fmt.Errorf("direct %s: %w", spec.Experiment, err)
		}
		got, err := json.Marshal(res)
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(got, want) {
			return 0, fmt.Errorf("direct %s returned other bytes than the daemon", spec.Experiment)
		}
		times = append(times, ms(el))
	}
	return median(times), nil
}

// traceHeatMaps replays the fig12 jobs' three steady-state solves through
// TilePowerMap and thermal.SteadyState and checks they give the job's
// result.
func (d *daemonInst) traceHeatMaps(tr *tracer, s *core.Sprinter, recs []jobRecord, out map[string][]float64) error {
	var want []byte
	for i, spec := range d.specs {
		if spec.Experiment == "fig12" {
			want = recs[i].result
			break
		}
	}
	if want == nil {
		return nil
	}
	dedup, err := profile.ByName("dedup")
	if err != nil {
		return err
	}
	level := s.Level(dedup, core.NoCSprinting)
	cases := []struct {
		name   string
		level  int
		scheme core.Scheme
		plan   bool
	}{
		{"full-sprinting", s.Mesh().Nodes(), core.FullSprinting, false},
		{"NoC-sprinting (identity floorplan)", level, core.NoCSprinting, false},
		{"NoC-sprinting (thermal-aware floorplan)", level, core.NoCSprinting, true},
	}
	var got []core.Fig12Case
	for _, c := range cases {
		tiles, err := s.TilePowerMap(c.level, c.scheme, c.plan)
		if err != nil {
			return err
		}
		sp := tr.begin(nil, "thermal.SteadyState")
		start := time.Now()
		hm, err := thermal.SteadyState(s.Config().Grid, tiles)
		el := time.Since(start)
		tr.end(sp, "case", c.name)
		if err != nil {
			return err
		}
		out["thermal.steady_ms"] = append(out["thermal.steady_ms"], ms(el))
		peak, _, _ := hm.Peak()
		got = append(got, core.Fig12Case{Name: c.name, Map: hm, PeakK: peak})
	}
	b, err := json.Marshal(got)
	if err != nil {
		return err
	}
	if !bytes.Equal(b, want) {
		return fmt.Errorf("replayed fig12 heat maps differ from the daemon's result")
	}
	return nil
}
