package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// setupFloorS is the absolute allowance on setup_s: a set-up a few
// milliseconds long may worsen by this much before it counts, however
// small its median.
const setupFloorS = 0.005

// runSet is one side of a comparison: the samples of every workload,
// pooled over one or more run files.
type runSet struct {
	order     []string
	samples   map[string]map[string][]float64
	attempted map[string]int
	failed    map[string]int
}

// loadRunSet reads a comma-separated list of run files.
func loadRunSet(arg string) (*runSet, error) {
	rs := &runSet{samples: map[string]map[string][]float64{}, attempted: map[string]int{}, failed: map[string]int{}}
	for _, path := range strings.Split(arg, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rf runFile
		if err := json.Unmarshal(b, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, r := range rf.Workloads {
			if _, ok := rs.samples[r.Workload]; !ok {
				rs.order = append(rs.order, r.Workload)
				rs.samples[r.Workload] = map[string][]float64{}
			}
			merge(rs.samples[r.Workload], r.Samples)
			rs.attempted[r.Workload] += r.Attempted
			rs.failed[r.Workload] += r.Failed
		}
	}
	return rs, nil
}

// verdict judges new against old for one metric: the relative change of the
// medians, the larger relative spread of the two sides, and one of ok,
// regressed, improved or unresolved. The change allowed is the bound's
// share of the old median (for setup_s at least setupFloorS); the verdict
// is unresolved when the spread is wider than that. A metric without a
// bound is only reported.
func verdict(d metricDef, old, new []float64) (delta, sp float64, v string) {
	mo, mn := median(old), median(new)
	if mo != 0 {
		delta = (mn - mo) / math.Abs(mo)
	}
	sp = max(spread(old), spread(new))
	if d.Bound == nil {
		return delta, sp, "-"
	}
	worse := mn - mo
	if d.Better == "higher" {
		worse = -worse
	}
	allowed := *d.Bound * math.Abs(mo)
	if d.Name == "setup_s" {
		allowed = max(allowed, setupFloorS)
	}
	switch {
	case sp*math.Abs(mo) > allowed:
		return delta, sp, "unresolved"
	case worse > allowed:
		return delta, sp, "regressed"
	case -worse > allowed:
		return delta, sp, "improved"
	}
	return delta, sp, "ok"
}

// runCompare prints, per workload and metric, both medians, the change,
// the bound, the spread and the verdict. It exits 1 when any bounded metric
// regressed or is unresolved, or more operations failed.
func runCompare(man *manifest, args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "nocbench: -compare takes two arguments: OLD NEW (each a comma-separated list of run files)")
		return 2
	}
	old, err := loadRunSet(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "nocbench:", err)
		return 1
	}
	cur, err := loadRunSet(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "nocbench:", err)
		return 1
	}
	bad := false
	fmt.Fprintf(w, "%-16s %-30s %14s %14s %9s %7s %7s  %s\n", "workload", "metric", "old", "new", "delta", "bound", "spread", "verdict")
	for _, wl := range cur.order {
		prev, ok := old.samples[wl]
		if !ok {
			fmt.Fprintf(w, "%-16s only in the new runs\n", wl)
			continue
		}
		ns := cur.samples[wl]
		for _, d := range man.all() {
			if len(prev[d.Name]) == 0 || len(ns[d.Name]) == 0 {
				continue
			}
			delta, sp, v := verdict(d, prev[d.Name], ns[d.Name])
			bound := "-"
			if d.Bound != nil {
				bound = fmt.Sprintf("%.0f%%", *d.Bound*100)
			}
			if v == "regressed" || v == "unresolved" {
				bad = true
			}
			fmt.Fprintf(w, "%-16s %-30s %14.6g %14.6g %+8.1f%% %7s %6.1f%%  %s\n",
				wl, d.Name, median(prev[d.Name]), median(ns[d.Name]), delta*100, bound, sp*100, v)
		}
		v := "ok"
		if cur.failed[wl]*max(old.attempted[wl], 1) > old.failed[wl]*max(cur.attempted[wl], 1) {
			v, bad = "regressed", true
		}
		fmt.Fprintf(w, "%-16s %-30s %14s %14s %9s %7s %7s  %s\n", wl, "failed/attempted",
			fmt.Sprintf("%d/%d", old.failed[wl], old.attempted[wl]), fmt.Sprintf("%d/%d", cur.failed[wl], cur.attempted[wl]), "", "+0", "", v)
	}
	if bad {
		return 1
	}
	return 0
}
