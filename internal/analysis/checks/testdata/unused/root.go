// The root fixture package plays the module's root package: its exported
// API is a root of the unused check, although cmd imports it.
package fixture

import "fixture/lib"

// Exported is root-package API, so it and what it uses are reachable.
func Exported() { helper(); lib.Used() }

//pagoda:allow unused helper is reached from Exported, so this is stale // want `\[suppression\] stale //pagoda:allow unused`
func helper() {}

func orphan() {} // want `\[unused\] fixture\.orphan is reachable from no main`

type T struct{}

func (T) unusedMethod() {} // want `\[unused\] fixture\.T\.unusedMethod is reachable`

// table is a package-level var: the functions its initializer names are
// roots, even though nothing calls them directly.
var table = map[string]func(){"a": fromTable}

func fromTable() { helper() }

func onlyTests() {} // want `\[unused\] fixture\.onlyTests is reachable`

//pagoda:allow unused an exception kept with its reason
func kept() {}

// Options is root-package API: callers outside the load set read its
// exported fields, so only the unexported one is reported.
type Options struct {
	Verbose bool
	secret  int // want `\[unused\] field fixture\.Options\.secret is never read`
}
