package lint

import "go/ast"

// SeededRand forbids the global math/rand source in internal/ packages.
// Chaos runs replay byte-for-byte only because every random decision
// comes from faults.Injector's (or a generator's) own seeded
// rand.New(rand.NewSource(seed)); the package-level functions draw from
// a shared, unseeded source and silently break that determinism.
var SeededRand = &Analyzer{
	Name: "seededrand",
	Doc:  "global math/rand draws from a shared unseeded source and breaks fault-replay determinism",
	Run:  runSeededRand,
}

// allowedRandFuncs construct seeded sources; everything else at package
// level draws from the global one.
var allowedRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true, "NewZipf": true,
}

// randScope lists where seededrand applies.
var randScope = []string{"internal"}

func runSeededRand(p *Pass) {
	if !p.inScope(randScope) {
		return
	}
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			f := callee(p.Pkg.Info, call)
			if f == nil || f.Pkg() == nil {
				return true
			}
			path := f.Pkg().Path()
			if path != "math/rand" && path != "math/rand/v2" {
				return true
			}
			// Methods on *rand.Rand are instance draws — fine.
			if recvType(f) != nil || allowedRandFuncs[f.Name()] {
				return true
			}
			p.Reportf(call.Pos(),
				"global rand.%s uses the shared unseeded source; draw from a rand.New(rand.NewSource(seed)) instance plumbed from the fault/config seed",
				f.Name())
			return true
		})
	}
}
