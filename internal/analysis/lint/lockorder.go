package lint

import (
	"fmt"
	"go/token"
)

// LockOrder builds the global mutex-acquisition graph — an edge A→B for
// every point that acquires lock class B while holding A, including
// transitively through static calls — and reports every cycle. Two
// goroutines walking a cycle from different ends deadlock; the serving
// tier's store/collection/router locks nest three deep, so the order
// must be globally consistent, not just locally sensible.
//
// Soundness boundary: classes are declaration sites ("(Type).field" or
// a package var), so two instances of one class are indistinguishable;
// dynamic calls and function literals contribute no edges; a lock in a
// local variable has no class and is invisible.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "mutex-acquisition cycles across functions and packages deadlock under the right interleaving",
	Run:  runLockOrder,
}

// lockOrderScope lists where lockorder reports.
var lockOrderScope = []string{"internal"}

func runLockOrder(p *Pass) {
	if !p.inScope(lockOrderScope) {
		return
	}
	prog := p.Prog
	prog.ensure()
	// Each cycle is reported exactly once, in the package owning its
	// witness position (deterministic: the smallest edge of the cycle).
	for _, cd := range prog.cycleDiags {
		if prog.pkgFiles[cd.witness.Filename] != p.Pkg {
			continue
		}
		p.reportAt(cd.witness, "%s", cd.message)
	}
}

// reportAt records a finding at an already-resolved position (used when
// the witness was computed against a different file set walk).
func (p *Pass) reportAt(pos token.Position, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}
