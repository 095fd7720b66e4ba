package ckpt

import (
	"os"
	"path/filepath"
	"testing"
)

// TestRemoveOrphanTempsCounts simulates the aftermath of kills that landed
// between WriteSnapshot's temp-file write and its rename: the orphaned
// `.<name>.tmp-*` files are swept and counted, while a real snapshot and
// files of other shapes survive untouched.
func TestRemoveOrphanTempsCounts(t *testing.T) {
	dir := t.TempDir()
	if err := WriteSnapshot(filepath.Join(dir, "job.json"), map[string]string{"exp": "fig11"}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{".a.json.tmp-1", ".b.json.tmp-2", "notes.tmp-but-not-hidden", ".hidden-config"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	n, err := RemoveOrphanTemps(dir)
	if err != nil || n != 2 {
		t.Errorf("RemoveOrphanTemps = (%d, %v), want (2, nil)", n, err)
	}
	n, err = RemoveOrphanTemps(dir)
	if err != nil || n != 0 {
		t.Errorf("second sweep = (%d, %v), want (0, nil)", n, err)
	}
	for _, name := range []string{"notes.tmp-but-not-hidden", ".hidden-config"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("non-orphan %s was removed: %v", name, err)
		}
	}
	var job map[string]string
	if err := ReadSnapshot(filepath.Join(dir, "job.json"), &job); err != nil || job["exp"] != "fig11" {
		t.Errorf("real snapshot damaged by the sweep: %v %v", job, err)
	}
}
