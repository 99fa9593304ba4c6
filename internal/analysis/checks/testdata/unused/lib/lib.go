// Package lib is imported by the fixture, so its exported API is not a
// root of its own.
package lib

// Used is reached from the root package and from main.
func Used() {}

func Unreached() {} // want `\[unused\] fixture/lib\.Unreached is reachable`

// Shape is declared in the load set, so any method named Area is a root.
type Shape interface{ Area() float64 }

type Square struct{}

func (Square) Area() float64 { return 1 }

// String is a name the standard library calls implicitly.
func (Square) String() string { return "square" }

// Import is a name go/types calls through types.Importer, an interface the
// load set does not declare.
func (Square) Import(path string) {}

func (Square) Perimeter() float64 { return 4 } // want `\[unused\] fixture/lib\.Square\.Perimeter is reachable`
