package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// FsyncErr enforces the crash-safety contract (§IV-C): durability
// claims are only as good as the least-checked fsync. It reports
// discarded error results from
//
//   - Sync / Flush (and module helpers whose name starts or ends with
//     sync/flush) — an fsync error means acknowledged data may not be
//     on disk, which is the one thing the journal exists to prevent;
//   - Write / WriteString on *os.File and *bufio.Writer — journal
//     append helpers must not drop short writes;
//   - Close on *os.File write handles — the OS may surface a deferred
//     write-back failure only at close.
//
// Two idioms stay legal: closing a read-only handle (mode is tracked
// from os.Open/os.OpenFile flags), and best-effort cleanup on a path
// that is already returning an error (`f.Close(); os.Remove(tmp);
// return err`). An explicit `_ = f.Close()` is a visible decision and
// is not reported.
var FsyncErr = &Analyzer{
	Name: "fsyncerr",
	Doc:  "unchecked Sync/Flush/Write/Close errors silently void the durability contract",
	Run:  runFsyncErr,
}

// fsyncScope lists where fsyncerr applies.
var fsyncScope = []string{"internal"}

func runFsyncErr(p *Pass) {
	if !p.inScope(fsyncScope) {
		return
	}
	for _, file := range p.Pkg.Files {
		pm := buildParents(file)
		readOnly := trackFileModes(p, file)
		ast.Inspect(file, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch s := n.(type) {
			case *ast.ExprStmt:
				call, _ = s.X.(*ast.CallExpr)
			case *ast.DeferStmt:
				call = s.Call
			}
			if call == nil {
				return true
			}
			f := callee(p.Pkg.Info, call)
			if f == nil {
				return true
			}
			kind := classifyDurabilityCall(f)
			if kind == "" {
				return true
			}
			if kind == "close" {
				if recvObj := receiverObject(p, call); recvObj != nil && readOnly[recvObj] {
					return true
				}
				if onErrorCleanupPath(pm, n) {
					return true
				}
			}
			p.Reportf(call.Pos(),
				"%s error discarded; a failed %s means acknowledged data may not be durable — check it (or assign to _ to record the decision)",
				f.Name(), f.Name())
			return true
		})
	}
}

// classifyDurabilityCall returns "sync", "write", or "close" for calls
// whose error result guards durability, else "".
func classifyDurabilityCall(f *types.Func) string {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return ""
	}
	if !isErrorType(sig.Results().At(sig.Results().Len() - 1).Type()) {
		return ""
	}
	recv := recvType(f)
	name := strings.ToLower(f.Name())
	switch {
	case strings.HasPrefix(name, "sync") || strings.HasSuffix(name, "sync") ||
		strings.HasPrefix(name, "flush") || strings.HasSuffix(name, "flush"):
		return "sync"
	case (f.Name() == "Write" || f.Name() == "WriteString") &&
		(isNamed(recv, "os", "File") || isNamed(recv, "bufio", "Writer")):
		return "write"
	case f.Name() == "Close" && isNamed(recv, "os", "File"):
		return "close"
	}
	return ""
}

// receiverObject resolves the object of a method call's receiver when
// it is a plain identifier (locals only; fields return nil).
func receiverObject(p *Pass, call *ast.CallExpr) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil
	}
	return objOf(p.Pkg.Info, id)
}

// trackFileModes finds locals bound to read-only opens: os.Open, and
// os.OpenFile whose flags name none of the write bits. Creation calls
// (os.Create, os.CreateTemp) and unanalyzable flag expressions count as
// writable.
func trackFileModes(p *Pass, file *ast.File) map[types.Object]bool {
	readOnly := map[types.Object]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		a, ok := n.(*ast.AssignStmt)
		if !ok || len(a.Rhs) != 1 {
			return true
		}
		call, ok := a.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		f, ok := calleeFromPkg(p.Pkg.Info, call, "os")
		if !ok || recvType(f) != nil {
			return true
		}
		ro := false
		switch f.Name() {
		case "Open":
			ro = true
		case "OpenFile":
			if len(call.Args) >= 2 && !mentionsWriteFlag(call.Args[1]) {
				ro = true
			}
		default:
			return true
		}
		if !ro {
			return true
		}
		if id, ok := a.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
			if obj := objOf(p.Pkg.Info, id); obj != nil {
				readOnly[obj] = true
			}
		}
		return true
	})
	return readOnly
}

// mentionsWriteFlag reports whether the flag expression names a bit
// that makes the handle writable.
func mentionsWriteFlag(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		name := ""
		switch x := n.(type) {
		case *ast.Ident:
			name = x.Name
		case *ast.SelectorExpr:
			name = x.Sel.Name
		}
		switch name {
		case "O_WRONLY", "O_RDWR", "O_APPEND", "O_CREATE", "O_TRUNC":
			found = true
		}
		return !found
	})
	return found
}

// onErrorCleanupPath reports whether stmt sits in a statement list that
// ends by returning a non-nil error — the conventional shape of
// best-effort cleanup before propagating a failure.
func onErrorCleanupPath(pm parentMap, stmt ast.Node) bool {
	list := enclosingStmtList(pm, stmt)
	if len(list) == 0 {
		return false
	}
	ret, ok := list[len(list)-1].(*ast.ReturnStmt)
	if !ok || len(ret.Results) == 0 {
		return false
	}
	last := ast.Unparen(ret.Results[len(ret.Results)-1])
	if id, ok := last.(*ast.Ident); ok && id.Name == "nil" {
		return false
	}
	return true
}

// enclosingStmtList returns the statement list directly containing
// stmt.
func enclosingStmtList(pm parentMap, stmt ast.Node) []ast.Stmt {
	switch parent := pm[stmt].(type) {
	case *ast.BlockStmt:
		return parent.List
	case *ast.CaseClause:
		return parent.Body
	case *ast.CommClause:
		return parent.Body
	}
	return nil
}
