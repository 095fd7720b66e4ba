package nocsprint_test

import (
	"os/exec"
	"strings"
	"testing"
)

// TestBenchModule vets and tests bench/, the benchmark's own Go module. The
// root `go test ./...` does not descend into another module, yet nocbench
// calls serve.RunExperiment, serve.JobSpec and core's parameter structs
// directly, so a change to them can break it.
func TestBenchModule(t *testing.T) {
	if testing.Short() {
		t.Skip("vets, builds and tests the bench module")
	}
	for _, args := range [][]string{{"vet", "./..."}, {"test", "./..."}} {
		cmd := exec.Command("go", append([]string{"-C", "bench"}, args...)...)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Errorf("go -C bench %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
}
