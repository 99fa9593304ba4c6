package fixture

// The loader skips _test.go files, so test code is not a root: onlyTests
// stays unreachable.
func useFromTest() { onlyTests() }
