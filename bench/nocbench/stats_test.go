package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %g, want %g", tc.in, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

// TestQuartilesMatchPython pins the values Python's
// statistics.quantiles(xs, n=4) gives, so spreads agree with a Python
// check of the same runs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 9, 3, 7}, [3]float64{2, 5, 8}},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if [3]float64{q1, q2, q3} != tc.want {
			t.Errorf("quartiles(%v) = %g %g %g, want %v", tc.in, q1, q2, q3, tc.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != (8.25-2.75)/5.5 {
		t.Errorf("spread = %g", got)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %g, want 0", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for p, want := range map[float64]float64{50: 5, 90: 9, 100: 10, 1: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%g = %g, want %g", p, got, want)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{160, 90, true}, // 16 samples beyond p90, 8 beyond p95
		{200, 95, true},
		{20, 50, true},
		{19, 0, false},
		{1100, 99, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Trace: 1, Span: 1, Name: "root", Start: 0, End: 100},
		{Trace: 1, Span: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{Trace: 1, Span: 3, Parent: 1, Name: "b", Start: 20, End: 50}, // overlaps a
		{Trace: 1, Span: 4, Parent: 1, Name: "c", Start: 60, End: 70},
		{Trace: 1, Span: 5, Parent: 3, Name: "d", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 50, 2: 20, 3: 20, 4: 10, 5: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	if err := checkSpans(spans); err != nil {
		t.Fatal(err)
	}
	bad := append([]span(nil), spans...)
	bad[4].End = 60 // d outlives its parent b
	if checkSpans(bad) == nil {
		t.Error("a child outside its parent passed the check")
	}
	bad = append([]span(nil), spans...)
	bad[3].Parent = 9
	if checkSpans(bad) == nil {
		t.Error("a span with an unknown parent passed the check")
	}
}

func TestVerdict(t *testing.T) {
	bound := 0.1
	run := metricDef{Name: "run_s", Better: "lower", Bound: &bound}
	rate := metricDef{Name: "jobs_per_s", Better: "higher", Bound: &bound}
	base := []float64{1.00, 1.01, 0.99, 1.00}
	for _, tc := range []struct {
		d        metricDef
		old, new []float64
		want     string
	}{
		{run, base, []float64{1.02, 1.03, 1.01, 1.02}, "ok"},
		{run, base, []float64{1.2, 1.21, 1.19, 1.2}, "regressed"},
		{run, base, []float64{0.8, 0.81, 0.79, 0.8}, "improved"},
		{rate, base, []float64{0.8, 0.81, 0.79, 0.8}, "regressed"},
		{run, base, []float64{0.5, 1.5, 0.7, 1.3}, "unresolved"},
	} {
		if _, _, got := verdict(tc.d, tc.old, tc.new); got != tc.want {
			t.Errorf("%s %v -> %v: %s, want %s", tc.d.Name, tc.old, tc.new, got, tc.want)
		}
	}
	setup := metricDef{Name: "setup_s", Better: "lower", Bound: &bound}
	if _, _, got := verdict(setup, []float64{0.001}, []float64{0.004}); got != "ok" {
		t.Errorf("a 3 ms set-up change under the 5 ms floor: %s, want ok", got)
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "w", "--trace", "0", "--seed", "3", "-trace"})
	want := []string{"--workload", "w", "--trace=0", "--seed", "3", "-trace"}
	if len(got) != len(want) {
		t.Fatalf("got %q, want %q", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %q, want %q", got, want)
		}
	}
}
