package main

// Example runs the quickstart end to end: the simulation is deterministic,
// so its report is fixed.
func Example() {
	main()
	// Output:
	// task 2 done yet? true
	// ran 400 narrow tasks in 7.09 ms of simulated GPU time
	// tasks 400/400 done, avg latency 21.1us (max 71.1us), task-warp occupancy 0.0%, issue util 0.0%
	// all results verified
}
