package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// WrapCheck enforces the error-classification contract at the cluster
// and REST boundaries: an error produced by *another* package must not
// be returned bare. It either gets wrapped (`fmt.Errorf("...: %w",
// err)`) so the chain survives errors.Is/As — the router's retry and
// 503 mapping depend on finding queryengine.ErrUnavailable and
// datastore.ErrNotFound in the chain — or mapped to such a typed
// sentinel explicitly.
//
// Allowed: returning package-level sentinels (they *are* the
// classification), errors from same-package helpers (the boundary is
// between packages, not functions), fmt/errors constructors, and
// dynamic calls through func values (target unknowable statically).
var WrapCheck = &Analyzer{
	Name: "wrapcheck",
	Doc:  "cross-package errors returned bare lose the context retry classification needs",
	Run:  runWrapCheck,
}

// wrapScope lists where wrapcheck applies: the cluster and REST
// boundaries, where errors are classified.
var wrapScope = []string{"internal/cluster", "internal/restapi"}

func runWrapCheck(p *Pass) {
	if !p.inScope(wrapScope) {
		return
	}
	for _, file := range p.Pkg.Files {
		pm := buildParents(file)
		ast.Inspect(file, func(n ast.Node) bool {
			ret, ok := n.(*ast.ReturnStmt)
			if !ok {
				return true
			}
			for _, res := range ret.Results {
				checkReturnedError(p, pm, res)
			}
			return true
		})
	}
}

func checkReturnedError(p *Pass, pm parentMap, res ast.Expr) {
	res = ast.Unparen(res)
	tv, ok := p.Pkg.Info.Types[res]
	if !ok || !isErrorType(tv.Type) {
		return
	}
	switch x := res.(type) {
	case *ast.Ident:
		if x.Name == "nil" {
			return
		}
		obj := objOf(p.Pkg.Info, x)
		if obj == nil {
			return
		}
		// Package-level error vars are sentinels by construction.
		if obj.Parent() == obj.Pkg().Scope() {
			return
		}
		if f := lastErrorSource(p, pm, x, obj); f != nil {
			p.Reportf(x.Pos(),
				"error from %s returned bare across the package boundary; wrap it (fmt.Errorf(\"...: %%w\", err)) or map it to a typed sentinel", f.FullName())
		}
	case *ast.SelectorExpr:
		// pkg.ErrSentinel — typed sentinel, allowed.
		return
	case *ast.CallExpr:
		f := callee(p.Pkg.Info, x)
		if f == nil {
			return // dynamic call
		}
		if isForeignErrorFunc(p, f) {
			p.Reportf(x.Pos(),
				"error from %s returned bare across the package boundary; wrap it (fmt.Errorf(\"...: %%w\", err)) or map it to a typed sentinel", f.FullName())
		}
	}
}

// lastErrorSource finds the assignment to obj nearest above the use and
// returns the cross-package callee it came from, if that is what it
// was.
func lastErrorSource(p *Pass, pm parentMap, use *ast.Ident, obj types.Object) *types.Func {
	body := enclosingFunc(pm, use)
	if body == nil {
		return nil
	}
	var bestPos token.Pos = token.NoPos
	var bestFunc *types.Func
	ast.Inspect(body, func(n ast.Node) bool {
		a, ok := n.(*ast.AssignStmt)
		if !ok || a.Pos() >= use.Pos() {
			return true
		}
		for _, l := range a.Lhs {
			id, ok := ast.Unparen(l).(*ast.Ident)
			if !ok || objOf(p.Pkg.Info, id) != obj {
				continue
			}
			if a.Pos() <= bestPos {
				continue
			}
			bestPos = a.Pos()
			bestFunc = nil
			if len(a.Rhs) == 1 {
				if c, ok := ast.Unparen(a.Rhs[0]).(*ast.CallExpr); ok {
					if f := callee(p.Pkg.Info, c); f != nil && isForeignErrorFunc(p, f) {
						bestFunc = f
					}
				}
			}
		}
		return true
	})
	return bestFunc
}

// isForeignErrorFunc reports whether f lives in another package and is
// not a sanctioned constructor/wrapper.
func isForeignErrorFunc(p *Pass, f *types.Func) bool {
	pkg := f.Pkg()
	if pkg == nil || pkg.Path() == p.Pkg.Path {
		return false
	}
	switch pkg.Path() {
	case "errors", "fmt":
		return false
	}
	return true
}
