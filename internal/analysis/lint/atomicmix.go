package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AtomicMix enforces the all-or-nothing rule for atomics through the
// type system: no sync/atomic package function (atomic.AddInt64(&x, 1)
// style) is used in scope. Every atomic value is a typed atomic
// (atomic.Int64, atomic.Uint64, atomic.Bool, atomic.Pointer, …), whose
// only accessors are atomic, so a plain access that races with an
// atomic one does not compile.
//
// A second rule catches the time-of-check bug the typed atomics still
// allow: loading the same atomic twice inside one decision (the if's
// init/cond and again in its body), where the value may have moved
// between loads. Reuse the first load.
var AtomicMix = &Analyzer{
	Name: "atomicmix",
	Doc:  "atomics must be typed (no sync/atomic package functions); one decision gets one load",
	Run:  runAtomicMix,
}

// atomicScope lists where atomicmix applies.
var atomicScope = []string{"internal"}

func runAtomicMix(p *Pass) {
	if !p.inScope(atomicScope) {
		return
	}
	for id, obj := range p.Pkg.Info.Uses {
		fn, ok := obj.(*types.Func)
		if ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" && recvType(fn) == nil {
			p.Reportf(id.Pos(),
				"sync/atomic.%s operates on a plain variable that other code can still read or write plainly; declare it as a typed atomic (atomic.Int64, atomic.Uint64, …) instead",
				fn.Name())
		}
	}
	checkDoubleLoad(p)
}

// checkDoubleLoad flags two atomic loads of the same expression inside
// one if-decision: one in the init/cond, another in the cond, body, or
// else branch. Between the two loads the value may change, so the
// branch taken and the value used disagree.
func checkDoubleLoad(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ifStmt, ok := n.(*ast.IfStmt)
			if !ok {
				return true
			}
			first := map[string]token.Pos{}
			collect := func(n ast.Node, record bool) {
				if n == nil {
					return
				}
				ast.Inspect(n, func(m ast.Node) bool {
					if _, isIf := m.(*ast.IfStmt); isIf && m != n {
						return false // nested ifs get their own check
					}
					if _, isLit := m.(*ast.FuncLit); isLit {
						return false
					}
					call, ok := m.(*ast.CallExpr)
					if !ok {
						return true
					}
					key, ok := atomicLoadKey(p.Pkg, call)
					if !ok {
						return true
					}
					if prev, seen := first[key]; seen && prev < call.Pos() {
						p.Reportf(call.Pos(),
							"atomic %s is loaded again inside the same decision (first load at %s); the value may have changed between loads — reuse the first",
							key, posString(p.Pkg.Fset.Position(prev)))
					} else if record {
						first[key] = call.Pos()
					}
					return true
				})
			}
			collect(ifStmt.Init, true)
			collect(ifStmt.Cond, true)
			collect(ifStmt.Body, false)
			if ifStmt.Else != nil {
				if _, isIf := ifStmt.Else.(*ast.IfStmt); !isIf {
					collect(ifStmt.Else, false)
				}
			}
			return true
		})
	}
}

// atomicLoadKey recognizes a typed-atomic x.Load() or a
// atomic.LoadT(&x) call, returning a stable expression key.
func atomicLoadKey(pkg *Package, call *ast.CallExpr) (string, bool) {
	fn := callee(pkg.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return "", false
	}
	if recvType(fn) != nil {
		if fn.Name() != "Load" {
			return "", false
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return "", false
		}
		return types.ExprString(sel.X), true
	}
	switch fn.Name() {
	case "LoadInt32", "LoadInt64", "LoadUint32", "LoadUint64", "LoadPointer", "LoadUintptr":
		if len(call.Args) == 1 {
			if un, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr); ok && un.Op == token.AND {
				return types.ExprString(un.X), true
			}
		}
	}
	return "", false
}
