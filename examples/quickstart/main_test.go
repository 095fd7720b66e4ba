package main

// Example pins the program's whole output.
func Example() {
	main()
	// Output:
	// activation order (Algorithm 1): [0 1 4 5 2 8 6 9 10 3 12 7 13 11 14 15]
	// non-sprinting  level= 1  exec=0.680s  speedup=1.00x  core power=  5.5W  chip= 25.3W  routers on=16
	// full-sprinting level=16  exec=0.787s  speedup=0.86x  core power= 86.4W  chip=106.2W  routers on=16
	// fine-grained   level= 4  exec=0.239s  speedup=2.84x  core power= 60.0W  chip= 79.8W  routers on=16
	// NoC-sprinting  level= 4  exec=0.239s  speedup=2.84x  core power= 21.7W  chip= 34.9W  routers on=4
	//
	// sprint region (level 4): active nodes [0 1 4 5]
	//   router  0: Cw=false Ce=true
	//   router  1: Cw=true Ce=false
	//   router  4: Cw=false Ce=true
	//   router  5: Cw=true Ce=false
	//
	// sprint duration: full 1.01s vs NoC-sprinting 1.76s (+74%)
}
