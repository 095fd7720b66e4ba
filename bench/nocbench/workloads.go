package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"nocsprint/internal/ckpt"
	"nocsprint/internal/core"
	"nocsprint/internal/floorplan"
	"nocsprint/internal/routing"
	"nocsprint/internal/topo"
)

// config is what every workload is built from. Inputs derive from seed
// alone; the rest sizes the load and selects observational switches that
// must not change any result.
type config struct {
	seed int64
	// workers is the sweep fan-out, and the daemon's executor and client
	// count.
	workers int
	// reference runs every network on the reference full-scan stepper.
	reference bool
	// tiny shrinks every workload to test size.
	tiny bool
	// dir is a scratch directory for state the workload writes.
	dir string
}

// outcome is what one untraced repetition produced.
type outcome struct {
	// digest is the SHA-256 of the repetition's JSON result.
	digest string
	// cycles is the simulated network cycle count, when the repetition
	// knows it without a replay; 0 otherwise.
	cycles int64
	// result is the driver's result, which the traced replay must match.
	result any
	// samples holds workload-specific per-repetition metrics.
	samples map[string][]float64
	// ops and failed count the operations the repetition attempted and
	// lost when it is more than one (the daemon's jobs); errors says why.
	ops, failed int
	errors      []string
}

// traced is what a traced run of a workload produced.
type traced struct {
	// wall is the traced repetition's wall time, for trace_overhead_frac.
	wall time.Duration
	// cycles is the simulated network cycle count the trace observed.
	cycles int64
	// samples holds the per-layer metrics.
	samples map[string][]float64
}

// instance is a workload after set-up.
type instance interface {
	// prepare readies the next repetition; it is not timed.
	prepare() error
	// run performs one untraced repetition.
	run() (outcome, error)
	// trace repeats the work of want's repetition with spans recorded around
	// the calls into each layer, and fails unless it reproduces want.
	trace(tr *tracer, want outcome) (traced, error)
	close() error
}

// workload is one named benchmark input; setup is what setup_s times.
type workload struct {
	name  string
	setup func(c config) (instance, error)
}

var workloads = []workload{
	{"fig11-mesh", setupFig11Mesh},
	{"dark-16x16", setupDark},
	{"topology-radix", setupTopology},
	{"faults-checked", setupFaults},
	{"daemon-mix", setupDaemon},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// digestJSON hashes the canonical JSON encoding of v.
func digestJSON(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// windows are the three simulation phases of a synthetic run, in cycles.
type windows struct{ warmup, measure, drain int }

func (w windows) sim(c config) core.NetSimParams {
	return core.NetSimParams{
		Warmup: w.warmup, Measure: w.measure, Drain: w.drain,
		Seed: c.seed, Workers: c.workers, Reference: c.reference,
	}
}

// defaultWindows are core's defaults, spelled out so the replay knows them.
var defaultWindows = windows{1500, 4000, 40000}

// tinyWindows keep test-sized runs short.
var tinyWindows = windows{100, 300, 3000}

// progress records when each sweep point resolved, for runner.tail_s.
type progress struct {
	mu sync.Mutex
	at []time.Time // at[k] is when the (k+1)-th point resolved
}

// callback is the sweep's Progress hook; the first call (done 0) only
// announces the total.
func (p *progress) callback(done, _ int) {
	if done == 0 {
		return
	}
	now := time.Now()
	p.mu.Lock()
	p.at = append(p.at, now)
	p.mu.Unlock()
}

// tail is the wall time from the moment fewer points remained than there
// are workers, so a worker sat idle, to end.
func (p *progress) tail(workers int, end time.Time) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.at) == 0 {
		return 0
	}
	return end.Sub(p.at[max(len(p.at)-workers, 0)]).Seconds()
}

// driveSweep runs one sweep driver call with a progress recorder attached
// and digests its result.
func driveSweep(sim core.NetSimParams, call func(core.NetSimParams) (any, error)) (outcome, error) {
	var pr progress
	sim.Progress = pr.callback
	res, err := call(sim)
	end := time.Now()
	if err != nil {
		return outcome{}, err
	}
	d, err := digestJSON(res)
	if err != nil {
		return outcome{}, err
	}
	return outcome{digest: d, result: res, samples: map[string][]float64{
		"runner.tail_s": {pr.tail(sim.Workers, end)},
	}}, nil
}

// parallel runs fn(i) for i in [0, n) on workers goroutines and returns the
// first error.
func parallel(n, workers int, fn func(i int) error) error {
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || errs[w] != nil {
					return
				}
				errs[w] = fn(i)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// routeProbe is one routing discipline with the endpoints its workload
// routes between.
type routeProbe struct {
	kind  string // cdor, dor, torus or circulant
	tp    topo.Topology
	alg   routing.Algorithm
	nodes []int
}

// probeRouting times NextPort over every hop of every (src, dst) path of
// each probe and returns routing.nextport_ns.<kind> samples.
func probeRouting(tr *tracer, probes []routeProbe) (map[string][]float64, error) {
	const minCalls = 200000
	out := map[string][]float64{}
	for _, p := range probes {
		var hops [][2]int
		for _, src := range p.nodes {
			for _, dst := range p.nodes {
				cur := src
				for n := 0; cur != dst; n++ {
					port, err := p.alg.NextPort(cur, dst)
					if err != nil {
						return nil, fmt.Errorf("%s route %d->%d: %w", p.alg.Name(), src, dst, err)
					}
					if n > p.tp.Nodes() {
						return nil, fmt.Errorf("%s route %d->%d does not terminate", p.alg.Name(), src, dst)
					}
					hops = append(hops, [2]int{cur, dst})
					cur = p.tp.Neighbor(cur, port)
				}
			}
		}
		if len(hops) == 0 {
			continue
		}
		rounds := (minCalls + len(hops) - 1) / len(hops)
		sp := tr.begin(nil, "routing.NextPort")
		t := time.Now()
		for r := 0; r < rounds; r++ {
			for _, h := range hops {
				if _, err := p.alg.NextPort(h[0], h[1]); err != nil {
					return nil, err
				}
			}
		}
		el := time.Since(t)
		calls := rounds * len(hops)
		tr.end(sp, "kind", p.kind, "calls", calls)
		key := "routing.nextport_ns." + p.kind
		out[key] = append(out[key], float64(el.Nanoseconds())/float64(calls))
	}
	return out, nil
}

// traceFloorplan times the thermal-aware floorplan of s's mesh.
func traceFloorplan(tr *tracer, s *core.Sprinter) (map[string][]float64, error) {
	m := s.Mesh()
	sp := tr.begin(nil, "floorplan.Thermal")
	t := time.Now()
	_, err := floorplan.Thermal(m, s.ActivationOrder())
	el := time.Since(t)
	tr.end(sp, "nodes", m.Nodes())
	if err != nil {
		return nil, err
	}
	return map[string][]float64{"floorplan.thermal_ms": {ms(el)}}, nil
}

// traceCkpt journals the workload's own results the way a checkpointed
// sweep would: a canonical key over the configuration and point index,
// then a fsynced append of the payload.
func traceCkpt(tr *tracer, dir, driver string, cfg core.Config, seed int64, payloads []any) (map[string][]float64, error) {
	jdir, err := os.MkdirTemp(dir, "ckpt-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(jdir)
	j, err := ckpt.Create(filepath.Join(jdir, "points.journal"))
	if err != nil {
		return nil, err
	}
	defer j.Close()
	out := map[string][]float64{}
	for i, p := range payloads {
		sp := tr.begin(nil, "ckpt.Key")
		t := time.Now()
		key, err := ckpt.Key(struct {
			Driver string
			Config core.Config
			Seed   int64
			Point  int
		}{driver, cfg, seed, i})
		el := time.Since(t)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		out["ckpt.key_us"] = append(out["ckpt.key_us"], us(el))
		sp = tr.begin(nil, "ckpt.Append")
		t = time.Now()
		err = j.Append(key, p)
		el = time.Since(t)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		out["ckpt.append_us"] = append(out["ckpt.append_us"], us(el))
	}
	return out, j.Close()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// merge adds every sample of src to dst.
func merge(dst map[string][]float64, src map[string][]float64) {
	for k, v := range src {
		dst[k] = append(dst[k], v...)
	}
}
