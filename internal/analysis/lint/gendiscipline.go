package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// GenDiscipline machine-checks the repo's generation protocol — the
// invariant DESIGN.md states in prose and the result cache's freshness
// proof rests on:
//
//  1. Every mutation of a collection's data happens under the write
//     lock, and every write-locked region that mutates data bumps the
//     generation before releasing the lock. (A mutation that escapes
//     the bump leaves the cache validating stale entries forever.)
//  2. The generation bump itself happens while the write lock is held,
//     so no reader can observe new data under the old generation.
//  3. Every rcache consult passes a generation that was loaded from a
//     generation counter before the read — never a constant, never a
//     value conjured after the fact.
//
// The routed counterpart — every Router write bumps its shard
// generation — needs no rule: Router.writeOnGroup defers the bump
// itself, so no write path can skip it.
//
// The collection shape (genSpec) is matched by type and field names,
// so the golden fixtures can replicate it under their own types.
//
// Soundness boundary: held-lock context propagates through static
// calls only (a mutator invoked via interface or func value gets the
// empty guarantee and is flagged); rule 3's data-flow trace follows
// local single assignments, not parameters across functions.
var GenDiscipline = &Analyzer{
	Name: "gendiscipline",
	Doc:  "datastore mutations must bump the collection generation under the write lock; cache consults must load it first",
	Run:  runGenDiscipline,
}

// genSpec is the datastore Collection's generation-counted shape.
var genSpec = struct {
	TypeName   string   // unqualified type name
	LockField  string   // the guarding RWMutex field
	BumpMethod string   // the bump-under-lock method
	DataFields []string // fields whose mutation requires a bump
}{
	TypeName:   "Collection",
	LockField:  "mu",
	BumpMethod: "bumpGenLocked",
	DataFields: []string{"docs", "order", "seq", "seqNext", "ordered", "bytes"},
}

// genScope lists where gendiscipline applies: the generation protocol
// only has meaning where the datastore, the query engine and the
// router meet.
var genScope = []string{"internal/datastore", "internal/queryengine", "internal/cluster"}

func runGenDiscipline(p *Pass) {
	if !p.inScope(genScope) {
		return
	}
	prog := p.Prog
	prog.ensure()
	mutates, bumps := prog.genTransitive()
	for _, ff := range prog.factsFor(p.Pkg) {
		checkCollectionFacts(p, prog, ff, mutates, bumps)
		checkCacheConsults(p, ff)
	}
}

// ---- Shape matching -------------------------------------------------

func ownerIs(owner *types.Named, typeName string) bool {
	if owner == nil || owner.Obj().Name() != typeName {
		return false
	}
	_, isStruct := owner.Underlying().(*types.Struct)
	return isStruct
}

func isSpecDataWrite(ev event) bool {
	if ev.kind != evWrite || !ownerIs(ev.fieldOwner, genSpec.TypeName) {
		return false
	}
	for _, f := range genSpec.DataFields {
		if ev.field.Name() == f {
			return true
		}
	}
	return false
}

func isSpecBumpCall(ev event) bool {
	return ev.kind == evCall && ev.callee != nil && ev.callee.Name() == genSpec.BumpMethod &&
		ownerIs(namedOf(recvType(ev.callee)), genSpec.TypeName)
}

// specLockClass reports whether a lock class is the spec's guard:
// "(pkg.TypeName).LockField" for any package.
func specLockClass(class LockClass) bool {
	return strings.HasSuffix(string(class), "."+genSpec.TypeName+")."+genSpec.LockField)
}

// ---- Transitive mutate/bump summaries (cached per Program) ----------

// genTransitive computes, bottom-up, which functions (transitively)
// mutate the spec's data fields and which (transitively) bump its
// generation. Calls inside literals and go statements do not count: a
// mutation deferred to another goroutine is not covered by this lock
// region anyway.
func (prog *Program) genTransitive() (mutates, bumps map[*types.Func]bool) {
	if prog.genMutates != nil {
		return prog.genMutates, prog.genBumps
	}
	mutates = map[*types.Func]bool{}
	bumps = map[*types.Func]bool{}
	for _, ff := range prog.factList {
		for _, ev := range ff.events {
			if ev.inLit || ev.inGo {
				continue
			}
			if isSpecDataWrite(ev) {
				mutates[ff.fn] = true
			}
			if isSpecBumpCall(ev) {
				bumps[ff.fn] = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, ff := range prog.factList {
			for _, ev := range ff.events {
				if ev.kind != evCall || ev.callee == nil || ev.inLit || ev.inGo {
					continue
				}
				if mutates[ev.callee] && !mutates[ff.fn] {
					mutates[ff.fn] = true
					changed = true
				}
				if bumps[ev.callee] && !bumps[ff.fn] {
					bumps[ff.fn] = true
					changed = true
				}
			}
		}
	}
	prog.genMutates, prog.genBumps = mutates, bumps
	return mutates, bumps
}

// ---- Rules 1 & 2: mutations and bumps under the write lock ----------

func checkCollectionFacts(p *Pass, prog *Program, ff *funcFacts, mutates, bumps map[*types.Func]bool) {
	// Rule 2: a bump call must run with the spec lock exclusively held —
	// locally or guaranteed by every caller. The bump method itself is
	// exempt (it is the mechanism, not a use).
	for _, ev := range ff.events {
		if !isSpecBumpCall(ev) || ev.inLit || ev.inGo {
			continue
		}
		if !specHeld(prog, ff.fn, ev) {
			p.Reportf(ev.pos,
				"%s called without holding the %s write lock; a reader can observe the new generation before the data (or vice versa)",
				genSpec.BumpMethod, genSpec.TypeName)
		}
	}

	// Rule 1a: direct data-field writes need the write lock.
	for _, ev := range ff.events {
		if !isSpecDataWrite(ev) || ev.inLit || ev.inGo {
			continue
		}
		if ff.fn.Name() == genSpec.BumpMethod {
			continue
		}
		if !specHeld(prog, ff.fn, ev) && !isConstructor(prog, ff) {
			p.Reportf(ev.pos,
				"%s.%s mutated without holding the %s write lock",
				genSpec.TypeName, ev.field.Name(), genSpec.TypeName)
		}
	}

	// Rule 1b: every exclusive critical section of the spec lock that
	// mutates data (directly or through calls) must also bump
	// (directly or through calls) before releasing.
	for _, region := range ff.regions {
		if !region.lk.excl || !specLockClass(region.lk.class) {
			continue
		}
		var regionMutates, regionBumps bool
		for _, ev := range ff.events {
			if !region.contains(ev.pos) || ev.inLit || ev.inGo {
				continue
			}
			if isSpecDataWrite(ev) {
				regionMutates = true
			}
			if isSpecBumpCall(ev) {
				regionBumps = true
			}
			if ev.kind == evCall && ev.callee != nil {
				if mutates[ev.callee] {
					regionMutates = true
				}
				if bumps[ev.callee] {
					regionBumps = true
				}
			}
		}
		if regionMutates && !regionBumps {
			p.Reportf(region.lk.pos,
				"write-locked region mutates %s data but never bumps the generation; cached reads will validate stale entries against the old generation forever",
				genSpec.TypeName)
		}
	}
}

// specHeld reports whether the spec's write lock is exclusively held at
// ev: in the event's own held set, or guaranteed at every static call
// site of the containing function.
func specHeld(prog *Program, fn *types.Func, ev event) bool {
	for _, h := range ev.held {
		if h.excl && specLockClass(h.class) {
			return true
		}
	}
	g := prog.heldIn[fn]
	if g.top {
		return false
	}
	for cls := range g.set {
		if specLockClass(cls) {
			return true
		}
	}
	return false
}

// isConstructor exempts functions that build a fresh, unpublished
// value: a function in the spec type's own package whose body writes
// fields of a value it just allocated. The heuristic is the usual one —
// the function returns the spec type (or a pointer to it) and is not a
// method on it.
func isConstructor(prog *Program, ff *funcFacts) bool {
	sig, ok := ff.fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return false
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if named := namedOf(res.At(i).Type()); named != nil && named.Obj().Name() == genSpec.TypeName {
			return true
		}
	}
	return false
}

// ---- Rule 3: cache consults load the generation first ---------------

// checkCacheConsults verifies the gen argument of every
// rcache.Cache.GetOrCompute call derives from a generation counter
// (a .Generation(), an atomic .Load(), or a .sum()) loaded in this
// function before the consult — not a constant or unrelated value.
func checkCacheConsults(p *Pass, ff *funcFacts) {
	for _, ev := range ff.events {
		if ev.kind != evCall || ev.callee == nil || ev.callee.Name() != "GetOrCompute" {
			continue
		}
		named := namedOf(recvType(ev.callee))
		if named == nil || named.Obj().Name() != "Cache" || !strings.HasSuffix(named.Obj().Pkg().Path(), "rcache") {
			continue
		}
		idx := genParamIndex(ev.callee)
		if idx < 0 || idx >= len(ev.call.Args) {
			continue
		}
		if !genArgOK(ff.pkg, ff.decl.Body, ev.call.Args[idx], ev.pos, 0) {
			p.Reportf(ev.call.Args[idx].Pos(),
				"generation passed to GetOrCompute does not derive from a generation counter loaded before the read; the freshness contract (gen before data) is unprovable here")
		}
	}
}

// genParamIndex finds the parameter named "gen" in the signature.
func genParamIndex(fn *types.Func) int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return -1
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i).Name() == "gen" {
			return i
		}
	}
	return -1
}

// genArgOK reports whether e contains a generation source, following
// local single assignments backward (bounded depth).
func genArgOK(pkg *Package, body *ast.BlockStmt, e ast.Expr, usePos token.Pos, depth int) bool {
	if depth > 4 {
		return false
	}
	e = ast.Unparen(e)
	if containsGenSource(pkg, e) {
		return true
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	obj := objOf(pkg.Info, id)
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Pos() >= usePos {
			return true
		}
		for i, lhs := range as.Lhs {
			lid, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok || objOf(pkg.Info, lid) != obj {
				continue
			}
			var rhs ast.Expr
			switch {
			case len(as.Rhs) == len(as.Lhs):
				rhs = as.Rhs[i]
			case len(as.Rhs) == 1:
				rhs = as.Rhs[0]
			}
			if rhs != nil && genArgOK(pkg, body, rhs, usePos, depth+1) {
				found = true
			}
		}
		return !found
	})
	return found
}

// containsGenSource scans an expression for a call whose name marks a
// generation read: Generation(), an atomic Load(), or sum().
func containsGenSource(pkg *Package, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := ""
		switch fn := ast.Unparen(call.Fun).(type) {
		case *ast.SelectorExpr:
			name = fn.Sel.Name
		case *ast.Ident:
			name = fn.Name
		}
		switch name {
		case "Generation", "Load", "sum":
			found = true
			return false
		}
		return true
	})
	return found
}
