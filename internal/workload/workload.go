// Package workload models the PARSEC 2.1 multi-threaded benchmarks the
// paper evaluates with gem5. Since a full-system simulator is out of scope,
// each benchmark is an analytic scalability profile — an extended Amdahl
// model with serial fraction, inherent parallelism P, per-core scheduling
// overhead, quadratic contention beyond P, and an interconnect term driven
// by the *actual* average hop count of the sprint region the threads run in:
//
//	T(n)/T(1) = serial + (1−serial)/min(n,P) + overhead·(n−1)
//	            + contention·max(0, n−P)² + comm·avgHops(n)
//
// The three published shapes emerge from the constants: scalable
// (blackscholes, bodytrack), serial (freqmine), and peaked-then-degrading
// (vips, swaptions, dedup at level 4). Per-benchmark constants are
// calibrated so the suite approximates the paper's aggregate results (3.6×
// average NoC-sprinting speedup vs 1.9× full-sprinting, §4.1–4.2); the
// exact measured aggregates are recorded in EXPERIMENTS.md.
package workload

import (
	"fmt"

	"nocsprint/internal/topo"
)

// Profile is one benchmark's scalability model.
type Profile struct {
	// Name is the PARSEC benchmark name.
	Name string
	// Serial is the non-parallelisable fraction of work.
	Serial float64
	// Parallelism is the inherent thread-level parallelism P: cores beyond
	// P contribute no speedup, only overhead and contention.
	Parallelism int
	// Overhead is the per-extra-core scheduling/synchronisation cost as a
	// fraction of single-core time.
	Overhead float64
	// Contention is the coefficient of the quadratic synchronisation
	// penalty for cores beyond the parallelism limit.
	Contention float64
	// Comm is the interconnect sensitivity: execution-time fraction added
	// per average network hop of the active region.
	Comm float64
	// InjRate is the average NoC injection rate (flits/cycle/node) the
	// benchmark generates in its parallel phase; the paper reports PARSEC
	// never exceeds 0.3.
	InjRate float64
	// BaseSeconds is the single-core execution time of the measured
	// one-billion-instruction window.
	BaseSeconds float64
}

// Validate reports the first implausible field, or nil.
func (p Profile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("workload: empty name")
	case p.Serial < 0 || p.Serial > 1:
		return fmt.Errorf("workload: %s serial fraction %g outside [0,1]", p.Name, p.Serial)
	case p.Parallelism < 1:
		return fmt.Errorf("workload: %s parallelism %d < 1", p.Name, p.Parallelism)
	case p.Overhead < 0 || p.Comm < 0 || p.Contention < 0:
		return fmt.Errorf("workload: %s negative overhead/contention/comm", p.Name)
	case p.InjRate < 0 || p.InjRate > 1:
		return fmt.Errorf("workload: %s injection rate %g outside [0,1]", p.Name, p.InjRate)
	case p.BaseSeconds <= 0:
		return fmt.Errorf("workload: %s non-positive base time", p.Name)
	}
	return nil
}

// NormTime returns T(n)/T(1) for n cores communicating over a region with
// the given average hop count. It panics for n < 1 (caller bug).
func (p Profile) NormTime(n int, avgHops float64) float64 {
	if n < 1 {
		panic(fmt.Sprintf("workload: %s with %d cores", p.Name, n))
	}
	useful := n
	if useful > p.Parallelism {
		useful = p.Parallelism
	}
	excess := float64(n - p.Parallelism)
	if excess < 0 {
		excess = 0
	}
	return p.Serial + (1-p.Serial)/float64(useful) +
		p.Overhead*float64(n-1) + p.Contention*excess*excess + p.Comm*avgHops
}

// Time returns absolute execution time in seconds on n cores.
func (p Profile) Time(n int, avgHops float64) float64 {
	return p.BaseSeconds * p.NormTime(n, avgHops)
}

// AvgHops returns the mean pairwise hop (Hamming) distance between distinct
// nodes — the interconnect distance uniform traffic experiences over a
// sprint region, given its nodes in activation order. Fewer than two nodes
// return 0.
func AvgHops(m *topo.Mesh, nodes []int) float64 {
	if len(nodes) < 2 {
		return 0
	}
	var sum, pairs float64
	for i, a := range nodes {
		for _, b := range nodes[i+1:] {
			sum += float64(m.HammingID(a, b))
			pairs++
		}
	}
	return sum / pairs
}

// OptimalLevel returns the sprint level in [1, len(order)] minimising
// NormTime over the prefixes of the activation order, and the minimised
// value. This is the paper's off-line profiling step (§4.1).
func (p Profile) OptimalLevel(m *topo.Mesh, order []int) (int, float64) {
	best, bestT := 1, p.NormTime(1, 0)
	for n := 2; n <= len(order); n++ {
		t := p.NormTime(n, AvgHops(m, order[:n]))
		if t < bestT {
			best, bestT = n, t
		}
	}
	return best, bestT
}

// Profiles returns the PARSEC 2.1 suite, calibrated per the package
// comment. BaseSeconds values are representative one-billion-instruction
// windows at 2 GHz.
func Profiles() []Profile {
	return []Profile{
		// Highly scalable: optimal at full sprint (Figure 8's exceptions).
		{Name: "blackscholes", Serial: 0.01, Parallelism: 16, Overhead: 0.003, Contention: 0, Comm: 0.004, InjRate: 0.05, BaseSeconds: 0.55},
		{Name: "bodytrack", Serial: 0.03, Parallelism: 16, Overhead: 0.0033, Contention: 0, Comm: 0.006, InjRate: 0.08, BaseSeconds: 0.62},
		// Mid-scalability: optimum at 5-6 cores.
		{Name: "ferret", Serial: 0.03, Parallelism: 6, Overhead: 0.004, Contention: 0.003, Comm: 0.008, InjRate: 0.12, BaseSeconds: 0.70},
		{Name: "fluidanimate", Serial: 0.04, Parallelism: 6, Overhead: 0.005, Contention: 0.004, Comm: 0.010, InjRate: 0.15, BaseSeconds: 0.66},
		{Name: "streamcluster", Serial: 0.035, Parallelism: 5, Overhead: 0.006, Contention: 0.0035, Comm: 0.012, InjRate: 0.22, BaseSeconds: 0.74},
		{Name: "swaptions", Serial: 0.05, Parallelism: 5, Overhead: 0.008, Contention: 0.003, Comm: 0.008, InjRate: 0.10, BaseSeconds: 0.52},
		// Peak-then-degrade in a small range (paper's vips/swaptions).
		{Name: "vips", Serial: 0.06, Parallelism: 4, Overhead: 0.010, Contention: 0.0035, Comm: 0.010, InjRate: 0.18, BaseSeconds: 0.58},
		{Name: "x264", Serial: 0.08, Parallelism: 4, Overhead: 0.012, Contention: 0.003, Comm: 0.009, InjRate: 0.14, BaseSeconds: 0.60},
		// dedup: the paper's thermal case study, optimal level 4.
		{Name: "dedup", Serial: 0.07, Parallelism: 4, Overhead: 0.012, Contention: 0.0045, Comm: 0.010, InjRate: 0.20, BaseSeconds: 0.68},
		{Name: "canneal", Serial: 0.09, Parallelism: 3, Overhead: 0.014, Contention: 0.004, Comm: 0.014, InjRate: 0.25, BaseSeconds: 0.80},
		{Name: "raytrace", Serial: 0.12, Parallelism: 3, Overhead: 0.016, Contention: 0.0035, Comm: 0.007, InjRate: 0.07, BaseSeconds: 0.72},
		// Effectively serial (paper's freqmine).
		{Name: "freqmine", Serial: 0.72, Parallelism: 2, Overhead: 0.008, Contention: 0.0008, Comm: 0.005, InjRate: 0.06, BaseSeconds: 0.76},
	}
}

// ByName returns the named profile, or an error.
func ByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown benchmark %q", name)
}
