// Package lonely is imported by no loaded package, as a test-support
// package is: its exported API is a root.
package lonely

// API is reachable as un-imported package API.
func API() { inner() }

func inner() {}

func hidden() {} // want `\[unused\] fixture/lonely\.hidden is reachable`

// Config is un-imported package API, so its exported field is read.
type Config struct{ Level int }
