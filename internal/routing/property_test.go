package routing

import (
	"fmt"
	"testing"

	"nocsprint/internal/sprint"
	"nocsprint/internal/topo"
)

// TestCDORPropertyExhaustive sweeps every sprint level on the paper's 4×4
// mesh and on an 8×8 mesh, under both activation metrics, and checks for
// every (src, dst) pair of active nodes:
//
//  1. CDOR produces a path that reaches dst,
//  2. the path never leaves the active region,
//  3. the path is loop-free (no node revisited), and
//  4. NextPort answers every active (current, destination) pair.
//
// This is the exhaustive ground truth the fuzz targets lean on: within these
// mesh sizes, any CDOR misbehaviour is caught here deterministically.
func TestCDORPropertyExhaustive(t *testing.T) {
	sizes := []int{4, 8}
	if testing.Short() {
		sizes = []int{4}
	}
	for _, size := range sizes {
		for _, metric := range []sprint.Metric{sprint.Euclidean, sprint.Hamming} {
			size, metric := size, metric
			t.Run(fmt.Sprintf("%dx%d/%v", size, size, metric), func(t *testing.T) {
				t.Parallel()
				m := topo.NewMesh(size, size)
				n := m.Nodes()
				for level := 1; level <= n; level++ {
					region := sprint.NewRegion(m, 0, level, metric)
					alg := NewCDOR(region)
					active := region.ActiveNodes()

					for _, src := range active {
						for _, dst := range active {
							path, err := Path(m, alg, src, dst)
							if err != nil {
								t.Fatalf("level %d: Path(%d,%d): %v", level, src, dst, err)
							}
							if path[0] != src || path[len(path)-1] != dst {
								t.Fatalf("level %d: Path(%d,%d) = %v has wrong endpoints", level, src, dst, path)
							}
							seen := make(map[int]bool, len(path))
							for _, id := range path {
								if !region.Active(id) {
									t.Fatalf("level %d: Path(%d,%d) = %v leaves the region at %d", level, src, dst, path, id)
								}
								if seen[id] {
									t.Fatalf("level %d: Path(%d,%d) = %v revisits %d", level, src, dst, path, id)
								}
								seen[id] = true
							}
						}
					}

					for _, cur := range active {
						for _, dst := range active {
							if _, err := alg.NextPort(cur, dst); err != nil {
								t.Fatalf("level %d: NextPort(%d,%d): %v", level, cur, dst, err)
							}
						}
					}
				}
			})
		}
	}
}

// TestCDORPropertyOffsetMasters repeats the exhaustive check on a 4×4 mesh
// for every master placement (not just the paper's memory-controller corner),
// since Algorithm 2's escape rule depends on the master row.
func TestCDORPropertyOffsetMasters(t *testing.T) {
	m := topo.NewMesh(4, 4)
	n := m.Nodes()
	for master := 0; master < n; master++ {
		for _, metric := range []sprint.Metric{sprint.Euclidean, sprint.Hamming} {
			for level := 1; level <= n; level++ {
				region := sprint.NewRegion(m, master, level, metric)
				alg := NewCDOR(region)
				for _, src := range region.ActiveNodes() {
					for _, dst := range region.ActiveNodes() {
						path, err := Path(m, alg, src, dst)
						if err != nil {
							t.Fatalf("master %d level %d %v: Path(%d,%d): %v", master, level, metric, src, dst, err)
						}
						for _, id := range path {
							if !region.Active(id) {
								t.Fatalf("master %d level %d %v: Path(%d,%d) = %v leaves region",
									master, level, metric, src, dst, path)
							}
						}
					}
				}
			}
		}
	}
}
