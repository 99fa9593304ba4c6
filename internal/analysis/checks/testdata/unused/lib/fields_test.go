package lib

// Tests are not readers: onlyTests stays reported.
func readFromTest(c Counter) int { return c.onlyTests }
