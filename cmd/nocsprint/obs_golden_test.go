package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nocsprint/internal/core"
	"nocsprint/internal/obs"
)

// TestGoldenFig11FastWithObs pins the telemetry stream `fig11 -fast -obs`
// writes: the instrumented sweep must reproduce the registry's fig11 golden
// the uninstrumented sweep is pinned to, and one representative collector's
// JSONL output is itself a golden file — its byte layout (field order
// included) is the format external consumers parse.
//
// Regenerate after an intentional format change with:
//
//	go test ./cmd/nocsprint -run TestGoldenFig11FastWithObs -update
func TestGoldenFig11FastWithObs(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep is too slow for -short")
	}
	// The recorder the CLI's -obs flag builds, at its default interval, so
	// the golden stream pins what `fig11 -fast -obs` writes.
	rec, err := newRecorder(options{obsInterval: 1000})
	if err != nil {
		t.Fatal(err)
	}
	e, _ := core.LookupExperiment("fig11")
	series, err := e.Run(core.NetSimParams{Check: true, Obs: rec}, true)
	if err != nil {
		t.Fatal(err)
	}
	compareRegistryGolden(t, "fig11", series)

	// Read the point back from the files -obs-out writes.
	const label = "fig11/l4/r00/noc"
	dir := t.TempDir()
	if err := rec.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	stream, err := os.ReadFile(filepath.Join(dir, obs.FileName(label)+".jsonl"))
	if err != nil {
		t.Fatalf("sweep produced no collector labelled %q: %v", label, err)
	}
	checkObsStream(t, stream)

	path := filepath.Join("testdata", "golden", "obs_fig11_l4_r00_noc.jsonl")
	if *update {
		if err := os.WriteFile(path, stream, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create it): %v", err)
	}
	if !bytes.Equal(stream, want) {
		t.Fatalf("telemetry stream drifted from %s — if intentional, regenerate with -update.\n%s",
			path, firstDiff(stream, want))
	}
}

// checkObsStream asserts the structural invariants every collector stream
// promises: a meta line first, stable field order per record type, and
// monotonically increasing sample cycles.
func checkObsStream(t *testing.T, stream []byte) {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(stream))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var prevSample int64
	for i := 0; sc.Scan(); i++ {
		line := sc.Text()
		switch {
		case i == 0:
			if !strings.HasPrefix(line, `{"type":"meta","label":`) {
				t.Fatalf("line 1 is not a meta record: %s", line)
			}
			continue
		case strings.HasPrefix(line, `{"type":"sample","cycle":`):
			var s obs.Sample
			if err := json.Unmarshal([]byte(line), &s); err != nil {
				t.Fatalf("line %d does not decode as a sample: %v", i+1, err)
			}
			if s.Cycle <= prevSample {
				t.Fatalf("line %d: sample cycle %d not increasing (prev %d)", i+1, s.Cycle, prevSample)
			}
			prevSample = s.Cycle
		case strings.HasPrefix(line, `{"type":"event","cycle":`):
			// Field order pinned by the prefix; kind must decode strictly.
			var e obs.Event
			if err := json.Unmarshal([]byte(line), &e); err != nil {
				t.Fatalf("line %d does not decode as an event: %v", i+1, err)
			}
		default:
			t.Fatalf("line %d has unknown type or wrong leading fields: %s", i+1, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if prevSample == 0 {
		t.Fatal("stream carries no samples")
	}
}
