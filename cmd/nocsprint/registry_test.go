package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"nocsprint/internal/ckpt"
	"nocsprint/internal/core"
	"nocsprint/internal/obs"
	"nocsprint/internal/serve"
)

// registryGolden is one entry's pinned -fast answer: the CLI -json result
// and the sorted checkpoint keys its sweep journals (empty for entries that
// do not sweep).
type registryGolden struct {
	Result json.RawMessage
	Keys   []string
}

// TestRegistryFrontEndsAgree walks the core experiment registry under -fast
// with two workers and holds the three front ends to one answer per entry:
// the CLI's -json result bytes equal the daemon dispatch's marshalled result,
// the text renderer accepts that result, and the daemon admits the name.
// The result and the journal keys are pinned to
// testdata/golden/registry/<name>.json (-update rewrites them), so drift in
// any entry's numbers or a silently changed checkpoint key fails here.
func TestRegistryFrontEndsAgree(t *testing.T) {
	for _, e := range core.Experiments() {
		t.Run(e.Name, func(t *testing.T) {
			jpath := filepath.Join(t.TempDir(), "sweep.journal")
			j, err := ckpt.Create(jpath)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			var cli bytes.Buffer
			if err := json.Compact(&cli, runResult(t, e.Name, core.NetSimParams{Workers: 2, Journal: j})); err != nil {
				t.Fatal(err)
			}
			spec := serve.JobSpec{Experiment: e.Name, Fast: true, Workers: 2}
			if err := spec.Validate(); err != nil {
				t.Fatalf("daemon rejects a registry experiment: %v", err)
			}
			result, err := serve.RunExperiment(spec, core.NetSimParams{Workers: spec.Workers})
			if err != nil {
				t.Fatalf("daemon dispatch: %v", err)
			}
			daemon, err := json.Marshal(result)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cli.Bytes(), daemon) {
				t.Errorf("CLI -json and daemon results differ:\ncli:    %.200s\ndaemon: %.200s", cli.Bytes(), daemon)
			}

			var text bytes.Buffer
			if err := e.Text(&text, result); err != nil {
				t.Fatalf("text renderer: %v", err)
			}
			if text.Len() == 0 {
				t.Error("text renderer wrote nothing")
			}

			compareGolden(t, filepath.Join("registry", e.Name+".json"),
				registryGolden{Result: cli.Bytes(), Keys: journalKeys(t, jpath)})
		})
	}
}

// TestFig10ResolvesToFig9: Figures 9 and 10 plot one set of runs, so the
// registry holds one entry for them and fig10 is an alias of it. The alias
// resolves to the fig9 entry and is no entry of its own, `fig10 -fast
// -json` prints an envelope naming fig10 around fig9's pinned result, and
// the daemon's admission, the daemon's list of names and the CLI's usage
// all still know fig10.
func TestFig10ResolvesToFig9(t *testing.T) {
	if e, ok := core.LookupExperiment("fig10"); !ok || e.Name != "fig9" {
		t.Errorf("LookupExperiment(fig10) = %q, %v; want the fig9 entry", e.Name, ok)
	}
	for _, e := range core.Experiments() {
		if e.Name == "fig10" {
			t.Error("the registry holds a fig10 entry beside fig9's")
		}
	}
	compareRegistryGolden(t, "fig9", runResult(t, "fig10", core.NetSimParams{Workers: 2}))

	if err := (serve.JobSpec{Experiment: "fig10"}).Validate(); err != nil {
		t.Errorf("daemon rejects fig10: %v", err)
	}
	if err := (serve.JobSpec{Experiment: "fig99"}).Validate(); err == nil || !strings.Contains(err.Error(), "fig10") {
		t.Errorf("daemon's list of supported names lacks fig10: %v", err)
	}
	var help strings.Builder
	parseArgs([]string{"-h"}, &help)
	if !strings.Contains(help.String(), "fig10") {
		t.Errorf("-h output lacks fig10:\n%s", help.String())
	}
}

// analytic names the registry entries that run no simulation, so attach no
// telemetry collector.
var analytic = map[string]bool{
	"table1": true, "fig2": true, "fig3": true, "fig4": true, "fig7": true, "fig8": true,
	"fig12": true, "duration": true, "feedback": true, "controller": true, "dimdark": true,
}

// TestRegistryZeroDrift is the driver-level proof that the invariant
// checker, the reference stepper and telemetry never move a result. Every
// registry entry runs under -fast through the CLI's run three more times:
// under -check; under -check -refstep on one worker, so the run also
// crosses worker counts (the goldens run on two); and under -check -obs,
// with the recorder -obs builds at -obs-interval 100, so samples land in
// the 300-cycle -fast warm-up as well as in the measurement and drain
// windows. Each run must print the result bytes that
// testdata/golden/registry/<name>.json pins. Under -obs every entry that
// simulates must attach at least one collector, each holding samples, and
// the analytic entries none.
//
// llc skips the reference leg: on one worker it takes about 6 s on a
// 2-vCPU VM, some 40 times its optimized run, and the two message classes
// and the sink of its closed loop are stepper-equivalence cases in
// internal/noc. Under -short only fig11's legs run, so the race-detector
// run keeps a driver-level reference-stepper proof.
func TestRegistryZeroDrift(t *testing.T) {
	legs := []struct {
		name string
		sim  core.NetSimParams
		obs  bool
	}{
		{"check", core.NetSimParams{Check: true}, false},
		{"refstep", core.NetSimParams{Check: true, Reference: true, Workers: 1}, false},
		{"obs", core.NetSimParams{Check: true}, true},
	}
	for _, e := range core.Experiments() {
		if testing.Short() && e.Name != "fig11" {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			for _, leg := range legs {
				if e.Name == "llc" && leg.sim.Reference {
					continue
				}
				t.Run(leg.name, func(t *testing.T) {
					t.Parallel()
					sim := leg.sim
					if leg.obs {
						rec, err := obs.NewRecorder(obs.Config{Interval: 100})
						if err != nil {
							t.Fatal(err)
						}
						sim.Obs = rec
					}
					compareRegistryGolden(t, e.Name, runResult(t, e.Name, sim))
					if sim.Obs == nil {
						return
					}
					cols := sim.Obs.Collectors()
					if analytic[e.Name] != (len(cols) == 0) {
						t.Fatalf("%d collector(s) attached; analytic entry: %v", len(cols), analytic[e.Name])
					}
					for i, c := range cols {
						if c.Finish(); len(c.Samples()) == 0 {
							t.Errorf("collector %d of %d holds no samples", i, len(cols))
						}
					}
				})
			}
		})
	}
}

// runResult runs one registry entry on sim under -fast -json through the
// CLI's run, and returns the result the envelope carries.
func runResult(t *testing.T, name string, sim core.NetSimParams) json.RawMessage {
	t.Helper()
	var out bytes.Buffer
	if err := run(name, options{fast: true, json: true}, sim, &out); err != nil {
		t.Fatalf("CLI -json: %v", err)
	}
	var envelope struct {
		Experiment string
		Result     json.RawMessage
	}
	if err := json.Unmarshal(out.Bytes(), &envelope); err != nil {
		t.Fatalf("CLI -json output does not parse: %v", err)
	}
	if envelope.Experiment != name {
		t.Errorf("envelope names %q, want %q", envelope.Experiment, name)
	}
	return envelope.Result
}

// journalKeys returns the sorted keys recorded in the journal at path.
func journalKeys(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	records, err := ckpt.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{}
	for _, rec := range records {
		keys = append(keys, rec.Key)
	}
	sort.Strings(keys)
	return keys
}
