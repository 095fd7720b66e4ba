// Faults: inject a hand-written fault schedule into a sprinting NoC and
// watch the governor repair the region online — master election after the
// master dies, backoff-driven resume of a transient fault, and graceful
// degradation on a thermal trip — with the runtime invariant checker
// attached through every reconfiguration.
package main

import (
	"fmt"
	"log"

	"nocsprint/internal/core"
	"nocsprint/internal/fault"
)

func main() {
	sprinter, err := core.New(core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// A scripted scenario for a level-8 sprint on the 4×4 mesh, written in
	// the schedule text form: the master's router fail-stops at cycle 800,
	// node 9 goes dark transiently at cycle 2000 (healing 300 cycles later),
	// the link 5-6 dies at cycle 3500, and a thermal emergency trips at
	// cycle 5000.
	text := "perm:0@800; trans:9@2000+300; link:5-6@3500; trip@5000"
	sched, err := fault.Parse(text, 16)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("fault schedule:")
	for _, ev := range sched.Events() {
		fmt.Printf("  %s\n", ev)
	}

	params := core.FaultParams{Level: 8, Cycles: 8000, Sim: core.NetSimParams{Check: true}}
	pt, err := sprinter.FaultRun(sched, params, 1)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nafter %d faults the sprint survived:\n", pt.Faults)
	fmt.Printf("  availability        %.1f%% of the provisioned capacity\n", 100*pt.Availability)
	fmt.Printf("  packets delivered   %d\n", pt.Delivered)
	fmt.Printf("  packets dropped     %d (%.3f%%) — every one accounted, none lost silently\n",
		pt.Dropped, 100*pt.DropRate)
	fmt.Printf("  avg latency         %.1f cycles\n", pt.AvgLatency)
	fmt.Printf("  repairs             %d region re-formations\n", pt.Repairs)
	fmt.Printf("  master elections    %d (node 0 died; node %d took over)\n", pt.Elections, pt.FinalMaster)
	fmt.Printf("  transient resumes   %d (node 9 healed and re-joined)\n", pt.Resumed)
	fmt.Printf("  thermal degrades    %d (sprint level stepped down)\n", pt.Degrades)
	fmt.Printf("  final region        level %d, master %d, convex=%v\n",
		pt.FinalLevel, pt.FinalMaster, pt.FinalConvex)
	fmt.Printf("  invariant checks    %d violations across every reconfiguration\n", pt.Violations)
}
