package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"nocsprint/internal/ckpt"
	"nocsprint/internal/core"
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
	s, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range core.Experiments() {
		t.Run(e.Name, func(t *testing.T) {
			jpath := filepath.Join(t.TempDir(), "sweep.journal")
			j, err := ckpt.Create(jpath)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			var out bytes.Buffer
			if err := run(e.Name, options{fast: true, json: true, workers: 2, journal: j}, &out); err != nil {
				t.Fatalf("CLI -json: %v", err)
			}
			var envelope struct {
				Experiment string
				Result     json.RawMessage
			}
			if err := json.Unmarshal(out.Bytes(), &envelope); err != nil {
				t.Fatalf("CLI -json output does not parse: %v", err)
			}
			if envelope.Experiment != e.Name {
				t.Errorf("envelope names %q, want %q", envelope.Experiment, e.Name)
			}
			var cli bytes.Buffer
			if err := json.Compact(&cli, envelope.Result); err != nil {
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
			if err := e.Text(&text, s, result); err != nil {
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
