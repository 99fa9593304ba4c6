package main

import (
	// The root package is imported, as the examples import pagoda, so
	// only the root-package rule keeps its exported API.
	_ "fixture"
	"fixture/lib"
)

func main() { lib.Used() }

func init() { setup() }

func setup() {}

func stray() {} // want `\[unused\] fixture/cmd\.stray is reachable`
