package checks

import (
	"strconv"

	"repro/internal/analysis"
)

// randsourceBanned are the RNG packages whose default sources are either
// auto-seeded (math/rand since Go 1.20, math/rand/v2 always) or genuinely
// nondeterministic (crypto/rand). Simulation inputs must come from an
// explicitly seeded PRNG: prng.Xorshift, the simulator's one generator.
var randsourceBanned = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
	"crypto/rand":  true,
}

// Randsource flags imports of nondeterministic or globally seeded RNG
// packages in simulation code. The finding sits on the import line, so a
// suppression there covers every use in the file.
var Randsource = &analysis.Analyzer{
	Name:      "randsource",
	AppliesTo: inSimScope,
	Run: func(pass *analysis.Pass) {
		for _, pkg := range pass.Pkgs {
			for _, f := range pkg.Files {
				for _, imp := range f.Imports {
					path, err := strconv.Unquote(imp.Path.Value)
					if err != nil || !randsourceBanned[path] {
						continue
					}
					pass.Reportf(imp.Pos(), nil,
						"import of %s in simulation code; draw from an explicitly seeded prng.Xorshift (internal/prng)",
						path)
				}
			}
		}
	},
}
