package main

// Example pins the program's whole output.
func Example() {
	main()
	// Output:
	// fault schedule:
	//   perm:0@800
	//   trans:9@2000+300
	//   link:5-6@3500
	//   trip@5000
	//
	// after 4 faults the sprint survived:
	//   availability        43.9% of the provisioned capacity
	//   packets delivered   1087
	//   packets dropped     7 (0.640%) — every one accounted, none lost silently
	//   avg latency         18.3 cycles
	//   repairs             1 region re-formations
	//   master elections    1 (node 0 died; node 1 took over)
	//   transient resumes   1 (node 9 healed and re-joined)
	//   thermal degrades    1 (sprint level stepped down)
	//   final region        level 3, master 1, convex=true
	//   invariant checks    0 violations across every reconfiguration
}
