package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ClockDiscipline forbids direct wall-clock access in internal/
// packages: deterministic fault injection and virtual-time lease/health
// tests (PRs 1–3) only stay deterministic while every time-dependent
// decision flows through the injectable clock (internal/vclock, or a
// SetClock-style hook defaulting to it).
//
// Allowed anyway:
//   - packages on the allowlist (obs, vclock, cmd mains, examples) and
//     all test files (never loaded);
//   - the latency-measurement idiom: a time.Now() result whose every
//     use is time.Since, (time.Time).Sub, or a time.Time argument to a
//     module-internal function (metrics plumbing such as profile /
//     observeOp). Storing the value, converting it (UnixNano), or
//     comparing it is a decision, not a measurement — those are
//     reported.
var ClockDiscipline = &Analyzer{
	Name: "clockdiscipline",
	Doc:  "wall-clock reads outside the injectable clock break deterministic replay",
	Run:  runClockDiscipline,
}

// forbiddenClockCalls are the package-time functions that read or wait
// on the wall clock. Bare references (e.g. `now: time.Now` as an
// injectable field's default) are allowed; calls are not.
var forbiddenClockCalls = map[string]bool{
	"Now": true, "Sleep": true, "After": true, "AfterFunc": true,
	"Tick": true, "NewTicker": true, "NewTimer": true,
}

// clockAllow lists where wall-clock calls are permitted: obs exists to
// measure wall time, vclock is the injection point's one sanctioned
// implementation, and cmd mains and examples run in real time by
// definition.
var clockAllow = []string{"internal/obs", "internal/vclock", "cmd", "examples"}

func runClockDiscipline(p *Pass) {
	if p.inScope(clockAllow) {
		return
	}
	for _, file := range p.Pkg.Files {
		pm := buildParents(file)
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			f, ok := calleeFromPkg(p.Pkg.Info, call, "time")
			if !ok || recvType(f) != nil || !forbiddenClockCalls[f.Name()] {
				return true
			}
			if f.Name() == "Now" && isTimingOnlyNow(p, pm, call) {
				return true
			}
			p.Reportf(call.Pos(),
				"direct time.%s call; route through the injectable clock (vclock.Clock / SetClock) so fault and lease replay stays deterministic",
				f.Name())
			return true
		})
	}
}

// isTimingOnlyNow reports whether the time.Now() call's result is used
// exclusively to measure elapsed time.
func isTimingOnlyNow(p *Pass, pm parentMap, call *ast.CallExpr) bool {
	// The call must be the sole RHS of an assignment or declaration to
	// plain identifiers.
	parent := pm[call]
	var lhs []ast.Expr
	switch a := parent.(type) {
	case *ast.AssignStmt:
		if len(a.Rhs) != 1 || a.Rhs[0] != call {
			return false
		}
		lhs = a.Lhs
	case *ast.ValueSpec:
		if len(a.Values) != 1 || a.Values[0] != call {
			return false
		}
		for _, n := range a.Names {
			lhs = append(lhs, n)
		}
	default:
		return false
	}
	if len(lhs) != 1 {
		return false
	}
	id, ok := lhs[0].(*ast.Ident)
	if !ok || id.Name == "_" {
		return false
	}
	obj := objOf(p.Pkg.Info, id)
	if obj == nil {
		return false
	}
	body := enclosingFunc(pm, call)
	if body == nil {
		return false
	}
	used := false
	ok = true
	ast.Inspect(body, func(n ast.Node) bool {
		u, isIdent := n.(*ast.Ident)
		if !isIdent || objOf(p.Pkg.Info, u) != obj {
			return true
		}
		if isAssignTarget(pm, u) {
			return true
		}
		used = true
		if !isTimingUse(p, pm, u) {
			ok = false
		}
		return true
	})
	return used && ok
}

// isAssignTarget reports whether id appears on the left of = or :=.
func isAssignTarget(pm parentMap, id *ast.Ident) bool {
	a, ok := pm[id].(*ast.AssignStmt)
	if !ok {
		return false
	}
	for _, l := range a.Lhs {
		if l == id {
			return true
		}
	}
	return false
}

// isTimingUse classifies one use of a time.Now() result.
func isTimingUse(p *Pass, pm parentMap, id *ast.Ident) bool {
	// start.Sub(x) — receiver of Sub.
	if sel, ok := pm[id].(*ast.SelectorExpr); ok && sel.X == id && sel.Sel.Name == "Sub" {
		if _, isCall := pm[sel].(*ast.CallExpr); isCall {
			return true
		}
		return false
	}
	call, ok := pm[id].(*ast.CallExpr)
	if !ok {
		return false
	}
	argIdx := -1
	for i, a := range call.Args {
		if a == id {
			argIdx = i
		}
	}
	if argIdx < 0 {
		return false
	}
	f := callee(p.Pkg.Info, call)
	if f == nil {
		return false
	}
	// time.Since(start) / end.Sub(start).
	if f.Pkg() != nil && f.Pkg().Path() == "time" && (f.Name() == "Since" || f.Name() == "Sub") {
		return true
	}
	if f.Name() == "Sub" && isNamed(recvType(f), "time", "Time") {
		return true
	}
	// Module-internal metrics plumbing taking the start as time.Time.
	if f.Pkg() != nil && strings.HasPrefix(f.Pkg().Path(), p.Cfg.ModulePath) {
		sig := f.Type().(*types.Signature)
		if pt := paramTypeAt(sig, argIdx); pt != nil && isNamed(pt, "time", "Time") {
			return true
		}
	}
	return false
}

// paramTypeAt returns the static type of parameter i, handling
// variadics.
func paramTypeAt(sig *types.Signature, i int) types.Type {
	params := sig.Params()
	if params.Len() == 0 {
		return nil
	}
	if i >= params.Len()-1 && sig.Variadic() {
		last := params.At(params.Len() - 1).Type()
		if sl, ok := last.(*types.Slice); ok {
			return sl.Elem()
		}
		return last
	}
	if i >= params.Len() {
		return nil
	}
	return params.At(i).Type()
}
