// Package main under bench/ stands for the benchmark module: every function
// in it is a root, and its reads count for the field rule.
package main

import "fixture/lib"

func main() {}

func notCalled() {}

// report drives the field fixture; FromBench is read nowhere else.
func report(c lib.Counter) int {
	if lib.Seen(1, 2) {
		return lib.Unbox(lib.Box[int]{}) + lib.Count(&c, 1)
	}
	return c.FromBench
}
