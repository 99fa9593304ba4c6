package main

// Example runs the router end to end: every packet is really encrypted and
// checked, and the simulation is deterministic, so its report is fixed.
func Example() {
	main()
	// Output:
	// encrypted 48 packets in 0.61 ms simulated; tasks 48/48 done, avg latency 38.0us (max 72.8us), task-warp occupancy 0.3%, issue util 2.6%
	// router throughput over 600 packets: Pagoda 1.24 ms vs CUDA-HyperQ 1.23 ms (0.99x)
	// per-packet latency: Pagoda 29.4 us avg vs HyperQ 499.5 us avg
}
