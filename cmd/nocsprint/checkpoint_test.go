package main

import (
	"io"
	"os"
	"reflect"
	"testing"
	"time"

	"nocsprint/internal/core"
)

func TestParseArgsCheckpointFlags(t *testing.T) {
	got, exp, err := parseArgs([]string{"fig11", "-timeout", "30s", "-checkpoint", "ckptdir", "-resume"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if exp != "fig11" || got.timeout != 30*time.Second || got.checkpoint != "ckptdir" || !got.resume {
		t.Errorf("parseArgs = %+v, %q", got, exp)
	}

	if _, _, err := parseArgs([]string{"fig11", "-resume"}, io.Discard); err == nil {
		t.Error("-resume without -checkpoint accepted")
	}
	if _, _, err := parseArgs([]string{"fig11", "-timeout", "-5s"}, io.Discard); err == nil {
		t.Error("negative -timeout accepted")
	}
}

// TestOpenCheckpointLifecycle walks the CLI checkpoint state machine: fresh
// create, resume of a valid journal, and the paths that must warn and start
// fresh rather than abort the run (no journal, corrupt journal). Each run
// shape keeps its own journal: a -fast resume beside a full-window run's
// journal loads none of its records, journals exactly the -fast run's
// points and prints what a fresh -fast run does, and the full-window
// journal keeps exactly its own records.
func TestOpenCheckpointLifecycle(t *testing.T) {
	dir := t.TempDir()
	o := options{checkpoint: dir}

	// With no journal yet, -resume starts fresh.
	o.resume = true
	j, err := openCheckpoint(o, "fig11")
	if err != nil {
		t.Fatalf("resume with no journal aborted the run: %v", err)
	}
	if j.Len() != 0 {
		t.Fatalf("resume with no journal loaded %d points, want 0", j.Len())
	}
	if err := j.Append("point-a", map[string]int{"n": 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Valid resume reloads the journaled point.
	j, err = openCheckpoint(o, "fig11")
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 1 {
		t.Fatalf("resume loaded %d points, want 1", j.Len())
	}
	j.Close()

	// Corrupt the journal: resume warns and starts fresh instead of aborting.
	jpath := j.Path()
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x40
	if err := os.WriteFile(jpath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err = openCheckpoint(o, "fig11")
	if err != nil {
		t.Fatalf("corrupt journal aborted the run: %v", err)
	}
	if j.Len() != 0 {
		t.Fatalf("corrupt journal resumed with %d points, want fresh", j.Len())
	}
	j.Close()

	// A full-window scale run, then a -fast resume in the same directory.
	full := options{checkpoint: dir}
	if j, err = openCheckpoint(full, "scale"); err != nil {
		t.Fatal(err)
	}
	if err := run("scale", options{json: true}, core.NetSimParams{Journal: j}, io.Discard); err != nil {
		t.Fatal(err)
	}
	fullPath, fullPoints := j.Path(), j.Len()
	j.Close()
	if fullPoints == 0 {
		t.Fatal("the full-window scale run journaled no points")
	}
	if j, err = openCheckpoint(options{checkpoint: dir, resume: true, fast: true}, "scale"); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Len() != 0 {
		t.Fatalf("-fast resume loaded %d of the full-window run's %d records, want 0", j.Len(), fullPoints)
	}
	compareRegistryGolden(t, "scale", runResult(t, "scale", core.NetSimParams{Journal: j}))
	if got, want := journalKeys(t, j.Path()), readRegistryGolden(t, "scale").Keys; !reflect.DeepEqual(got, want) {
		t.Errorf("-fast journal %s holds keys %v, want the %d registry/scale.json pins", j.Path(), got, len(want))
	}
	if n := len(journalKeys(t, fullPath)); n != fullPoints {
		t.Errorf("full-window journal %s holds %d records after the -fast run, want its own %d", fullPath, n, fullPoints)
	}
}
