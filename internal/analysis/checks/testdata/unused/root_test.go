package fixture

// Test code is not a root: onlyTests stays unreachable.
func useFromTest() { onlyTests() }
