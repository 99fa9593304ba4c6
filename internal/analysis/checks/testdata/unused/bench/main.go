// Package main under bench/ stands for the benchmark module: every function
// in it is a root.
package main

func main() {}

func notCalled() {}
