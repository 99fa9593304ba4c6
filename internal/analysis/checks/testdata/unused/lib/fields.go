package lib

// Counter's fields exercise the field rule: a use is a read unless it is
// the whole left side of an assignment or inc/dec, or a composite-literal
// key.
type Counter struct {
	hits      int // want `\[unused\] field fixture/lib\.Counter\.hits is never read`
	total     int // want `\[unused\] field fixture/lib\.Counter\.total is never read`
	ops       int // want `\[unused\] field fixture/lib\.Counter\.ops is never read`
	live      int
	onlyTests int    // want `\[unused\] field fixture/lib\.Counter\.onlyTests is never read`
	Tagged    int    `json:"tagged"` // encoding/json reads it
	FromBench int    // read only by the bench/ program
	kept      int    //pagoda:allow unused an exception kept with its reason
	Shape            // embedded fields are never reported
	label     string // want `\[unused\] field fixture/lib\.Counter\.label is never read`
}

// Count writes every field and reads only live.
func Count(c *Counter, n int) int {
	c.hits = n
	c.total += n
	c.ops++
	(c.live)--
	c.onlyTests = n
	c.Tagged, c.FromBench, c.kept = n, n, n
	*c = Counter{label: "x", hits: 1}
	return c.live
}

// Box is generic: its field is read through an instantiation.
type Box[T any] struct{ v T }

// Unbox reads Box.v through Box[int].
func Unbox(b Box[int]) int { return b.v }

type pair struct{ x, y int }

type point struct{ x, y int }

// Seen keys a map by a local struct, so comparing keys reads every field,
// a nested struct's fields included; == and != read them as well.
func Seen(a, b int) bool {
	type key struct {
		p pair
		n int
	}
	seen := map[key]bool{}
	seen[key{pair{a, b}, a}] = true
	return seen[key{p: pair{x: b}}] || point{x: a} == point{y: b}
}

// settings is an anonymous struct type, out of the field rule's scope.
var settings = []struct{ name string }{{name: "a"}}
