package main

// Example runs the multi-programmed mix end to end, verifying every task's
// result, and compares the three GPU runtimes on it. The simulation is
// deterministic, so its report is fixed.
func Example() {
	main()
	// Output:
	// co-executed 4 apps x 120 tasks in 1.20 ms simulated
	// tasks 480/480 done, avg latency 19.2us (max 70.2us), task-warp occupancy 0.8%, issue util 4.0%
	// MPE mix: Pagoda 0.99 ms, HyperQ 1.53 ms (1.54x), GeMTC 1.95 ms (1.97x)
	// all tasks verified
}
