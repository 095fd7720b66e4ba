package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"nocsprint/internal/core"
)

// update regenerates the golden files instead of comparing against them.
// Only two tests write: TestRegistryFrontEndsAgree owns registry/*.json and
// TestGoldenFig11FastWithObs the telemetry stream.
//
//	go test ./cmd/nocsprint -run 'TestRegistryFrontEndsAgree|TestGoldenFig11FastWithObs' -update
var update = flag.Bool("update", false, "rewrite golden files under testdata/golden")

// compareGolden marshals got and compares it byte-for-byte against the named
// golden file, or rewrites the file under -update.
func compareGolden(t *testing.T, name string, got any) {
	t.Helper()
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create it): %v", err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("results drifted from %s — if the change is intentional, regenerate with -update.\ngot:\n%s\nwant:\n%s",
			path, firstDiff(data, want), path)
	}
}

// compareRegistryGolden fails unless got marshals to the result that
// testdata/golden/registry/<name>.json pins. Under -update it compares
// nothing: TestRegistryFrontEndsAgree rewrites that file.
func compareRegistryGolden(t *testing.T, name string, got any) {
	t.Helper()
	if *update {
		return
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if want := registryResult(t, name); !bytes.Equal(data, want) {
		t.Fatalf("results drifted from registry/%s.json — if the change is intentional, regenerate with -update.\n%s",
			name, firstDiff(data, want))
	}
}

// registryResult returns, indented, the result that
// testdata/golden/registry/<name>.json pins.
func registryResult(t *testing.T, name string) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := json.Indent(&out, readRegistryGolden(t, name).Result, "", "  "); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// readRegistryGolden reads testdata/golden/registry/<name>.json.
func readRegistryGolden(t *testing.T, name string) registryGolden {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "golden", "registry", name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var g registryGolden
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatal(err)
	}
	return g
}

// firstDiff locates the first differing line to keep failures readable.
func firstDiff(got, want []byte) string {
	g := bytes.Split(got, []byte("\n"))
	w := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return "line " + itoa(i+1) + ": got " + string(g[i]) + " | want " + string(w[i])
		}
	}
	return "length mismatch: got " + itoa(len(g)) + " lines, want " + itoa(len(w))
}

func itoa(v int) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// TestGoldenFig11Fast pins the `fig11 -fast` sweep: the exact latencies,
// powers, and saturation flags per (level, rate) point. Any change to the
// simulator, routing, seeding, or sweep parallelism that moves a number
// fails loudly here. The sweep also runs with the invariant checker on and
// must match the same golden — the zero-drift acceptance criterion.
func TestGoldenFig11Fast(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep is too slow for -short")
	}
	e, _ := core.LookupExperiment("fig11")
	run := func(check bool) any {
		series, err := e.Run(core.NetSimParams{Check: check}, true)
		if err != nil {
			t.Fatal(err)
		}
		return series
	}
	plain := run(false)
	compareRegistryGolden(t, "fig11", plain)

	checked, err := json.Marshal(run(true))
	if err != nil {
		t.Fatal(err)
	}
	plainJSON, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plainJSON, checked) {
		t.Fatal("invariant checker perturbed the fig11 sweep results")
	}
}

// TestGoldenSensitivityPoint pins one sensitivity-sweep configuration (the
// Table 1 router: 4 VCs, 4-flit buffers), checked and unchecked, to its row
// of the sensitivity sweep's registry golden. The point runs in the windows
// Experiment.Run gives every -fast run.
func TestGoldenSensitivityPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep is too slow for -short")
	}
	s, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	point := func(check bool) core.SensitivityRow {
		row, err := s.SensitivityPoint(4, 4, core.NetSimParams{Warmup: 300, Measure: 1000, Drain: 10000, Check: check})
		if err != nil {
			t.Fatal(err)
		}
		return row
	}
	plain := point(false)
	var rows []core.SensitivityRow
	if err := json.Unmarshal(registryResult(t, "sensitivity"), &rows); err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(rows, func(r core.SensitivityRow) bool { return r.VCs == 4 && r.BufferDepth == 4 })
	if i < 0 {
		t.Fatal("registry/sensitivity.json has no 4-VC, depth-4 row")
	}
	if !*update && plain != rows[i] {
		t.Fatalf("sensitivity point drifted from registry/sensitivity.json:\ngot:  %+v\nwant: %+v", plain, rows[i])
	}

	if checked := point(true); plain != checked {
		t.Fatalf("invariant checker perturbed the sensitivity point:\nwithout: %+v\nwith:    %+v", plain, checked)
	}
}

// TestGoldenFig11ReferenceStepper replays the fig11 -fast sweep on the
// reference full-scan stepper and compares it against the same golden file
// the optimized sweep is pinned to: the committed goldens prove the two
// pipelines are byte-identical end to end, through the CLI's own JSON
// encoding.
func TestGoldenFig11ReferenceStepper(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep is too slow for -short")
	}
	e, _ := core.LookupExperiment("fig11")
	series, err := e.Run(core.NetSimParams{Check: true, Reference: true}, true)
	if err != nil {
		t.Fatal(err)
	}
	compareRegistryGolden(t, "fig11", series)
}
