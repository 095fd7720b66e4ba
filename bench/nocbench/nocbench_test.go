package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// metricName is the form every metric name must take.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func loadTestManifest(t *testing.T) *manifest {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	man, err := loadManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	return man
}

// measureTiny measures w at test size and fails the test on any failed
// operation.
func measureTiny(t *testing.T, w workload, workers int, reference, trace bool) (*report, []span) {
	t.Helper()
	c := config{seed: 1, workers: workers, reference: reference, tiny: true, dir: t.TempDir()}
	r, spans := measure(w, c, options{reps: 1, trace: trace}, nil)
	if r.Failed > 0 || r.Digest == "" {
		t.Fatalf("%s (workers %d, reference %v, trace %v): %d of %d operations failed: %v",
			w.name, workers, reference, trace, r.Failed, r.Attempted, r.Errors)
	}
	return r, spans
}

// TestWorkloads runs every workload at test size and checks that its
// digest does not depend on the worker count or the stepper, that the
// traced replay reproduces the driver, that the spans are well formed, and
// that every metric it produces is declared in BENCHMARK.json.
func TestWorkloads(t *testing.T) {
	man := loadTestManifest(t)
	declared := map[string]bool{}
	for _, d := range man.all() {
		declared[d.Name] = true
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			one, _ := measureTiny(t, w, 1, false, false)
			two, _ := measureTiny(t, w, 2, false, false)
			if one.Digest != two.Digest {
				t.Errorf("digest at 1 worker %s, at 2 workers %s", one.Digest, two.Digest)
			}
			if w.name != "daemon-mix" { // a job spec has no stepper switch
				ref, _ := measureTiny(t, w, 2, true, false)
				if ref.Digest != two.Digest {
					t.Errorf("digest on the reference stepper %s, optimized %s", ref.Digest, two.Digest)
				}
			}
			tr, spans := measureTiny(t, w, 2, false, true)
			if tr.Digest != two.Digest {
				t.Errorf("traced run digest %s, untraced %s", tr.Digest, two.Digest)
			}
			if len(spans) == 0 {
				t.Error("traced run recorded no spans")
			}
			if err := checkSpans(spans); err != nil {
				t.Error(err)
			}
			for _, r := range []*report{one, tr} {
				for name := range r.Samples {
					if !declared[name] || !metricName.MatchString(name) {
						t.Errorf("metric %q is not declared in BENCHMARK.json", name)
					}
				}
			}
			for _, d := range man.EndToEnd {
				if len(one.Samples[d.Name]) == 0 {
					t.Errorf("untraced run lacks end-to-end metric %s", d.Name)
				}
			}
		})
	}
}

// TestManifest checks BENCHMARK.json against the rules its consumers rely
// on: well-formed unique names, the program's workloads, bounds only on
// end-to-end metrics, and setup_s with the largest bound.
func TestManifest(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var full struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricDef                  `json:"end_to_end"`
		PerLayer  []metricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &full); err != nil {
		t.Fatal(err)
	}
	if len(full.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(full.Workloads), len(workloads))
	}
	for i, w := range full.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
	seen := map[string]bool{}
	var setup float64
	maxBound := 0.0
	for _, d := range append(append([]metricDef(nil), full.EndToEnd...), full.PerLayer...) {
		if !metricName.MatchString(d.Name) || len(d.Name) > 64 || seen[d.Name] {
			t.Errorf("bad or repeated metric name %q", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range full.EndToEnd {
		if d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", d.Name)
			continue
		}
		maxBound = max(maxBound, *d.Bound)
		if d.Name == "setup_s" {
			setup = *d.Bound
		}
	}
	if setup == 0 || setup < maxBound {
		t.Errorf("setup_s bound %g is not the largest (%g)", setup, maxBound)
	}
	for _, d := range full.PerLayer {
		if d.Bound != nil {
			t.Errorf("per-layer metric %s has a bound", d.Name)
		}
	}
}

// TestResultLine checks the last line carries exactly the metrics of the
// run's kind.
func TestResultLine(t *testing.T) {
	man := loadTestManifest(t)
	for _, trace := range []bool{false, true} {
		rf := &runFile{Trace: trace, Workloads: []*report{{
			Workload: "w", Attempted: 3, Digest: "d",
			Samples: map[string][]float64{"run_s": {2, 1, 3}, "setup_s": {0.5}, "peak_rss_mb": {10}, "noc.share": {0.9}},
		}}}
		line, ok := resultLine(man, rf)
		if !ok {
			t.Fatalf("trace %v: result not correct: %s", trace, line)
		}
		var got struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatal(err)
		}
		want := man.EndToEnd
		if trace {
			want = man.PerLayer
		}
		if len(got.Metrics) != len(want) {
			t.Errorf("trace %v: %d metrics, want %d", trace, len(got.Metrics), len(want))
		}
		for _, d := range want {
			if m, ok := got.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("trace %v: metric %s missing or in the wrong unit", trace, d.Name)
			}
		}
		if !trace && got.Metrics["run_s"].Value != 2 {
			t.Errorf("run_s reads %g, want the median 2", got.Metrics["run_s"].Value)
		}
	}
}
