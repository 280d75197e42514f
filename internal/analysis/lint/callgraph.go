package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the interprocedural layer shared by the lockorder,
// goroleak, and gendiscipline analyzers (lockheld reads only its
// critical-section regions): a whole-program index of function bodies
// ("facts") plus bottom-up summaries computed as fixpoints over the
// static call graph. Everything is keyed by *types.Func, so facts
// compose across packages loaded by the same Loader.
//
// Soundness boundaries (shared by every client; see DESIGN.md):
//   - Only statically resolvable calls contribute: calls through
//     func-typed values and interface methods are treated as empty
//     summaries (they neither acquire locks nor run forever).
//   - Function literals are walked but their events carry inLit; a
//     literal's effects are not charged to the enclosing function,
//     because the literal usually runs later, elsewhere (goroutines,
//     callbacks). Literals invoked synchronously (sync.Once.Do) are
//     therefore under-approximated.
//   - Deferred calls are charged at the defer statement's position with
//     the lock set held there, an approximation of the exit-time state.

// LockClass names a mutex by its declaration site rather than its
// instance: "(pkg/path.Type).field" for a struct field,
// "pkg/path.varname" for a package-level var. Locals have no class
// (""): two goroutines can only contend on a lock both can reach, and
// lock-order cycles are a property of the declaration, not the copy.
type LockClass string

// heldLock is one acquisition active at a program point.
type heldLock struct {
	name  string    // instance expression as written, e.g. "c.mu"
	class LockClass // declaration-site class, "" for locals
	excl  bool      // Lock (true) vs RLock (false)
	pos   token.Pos // the acquiring statement
}

type evKind int

const (
	evAcquire evKind = iota // x.Lock() / x.RLock()
	evCall                  // any other call (static, dynamic, or deferred)
	evGo                    // go statement
	evWrite                 // assignment/IncDec/delete through a field or package var
)

// event is one interprocedurally relevant action inside a function
// body, with the lock set held when it executes.
type event struct {
	kind evKind
	pos  token.Pos
	held []heldLock

	// evAcquire
	class LockClass
	excl  bool
	name  string

	// evCall / evGo
	callee  *types.Func // nil for dynamic calls and go func(){} literals
	call    *ast.CallExpr
	dynamic bool // call of a func-typed value (not a builtin or conversion)

	// evWrite
	field      types.Object // *types.Var: struct field or package-level var
	fieldOwner *types.Named // owning type for struct fields, nil for vars

	inLit   bool // inside a function literal (held is nil there)
	inDefer bool // inside a defer statement (or a deferred literal)
	inGo    bool // inside a go statement's literal
}

// funcFacts is the per-function slice of the whole-program index.
type funcFacts struct {
	fn     *types.Func
	decl   *ast.FuncDecl
	pkg    *Package
	events []event
	// regions are the lock-held intervals of the body, for analyzers
	// that reason about critical sections as units (gendiscipline).
	regions []lockInterval
}

// lockInterval is one statically delimited critical section: positions
// in [start, end) run with lk held (function literals excepted), minus
// the excl ranges — tails of nested branches that unlock early
// (`if bad { mu.Unlock(); return err }`).
type lockInterval struct {
	start, end token.Pos
	excl       []posRange
	lk         heldLock
}

type posRange struct{ start, end token.Pos }

func (iv lockInterval) contains(pos token.Pos) bool {
	if pos < iv.start || pos >= iv.end {
		return false
	}
	for _, r := range iv.excl {
		if pos >= r.start && pos < r.end {
			return false
		}
	}
	return true
}

// heldState is the must-hold lattice value for calledHeld: top means
// "no call site constrains this yet" (the universal set).
type heldState struct {
	top bool
	set map[LockClass]bool
}

// lockEdge is one "acquired B while holding A" observation.
type lockEdge struct {
	From, To LockClass
	Witness  token.Position // where To was acquired (or the call that acquires it)
	Func     string         // fully qualified function containing the witness
}

// Program is the shared interprocedural index. Build one per analysis
// run (mplint builds one for all packages; Run builds a single-package
// one so fixture tests stay self-contained).
type Program struct {
	Cfg  *Config
	pkgs []*Package

	built     bool
	facts     map[*types.Func]*funcFacts
	factList  []*funcFacts // deterministic order
	pkgFiles  map[string]*Package
	acquires  map[*types.Func]map[LockClass]token.Pos
	forever   map[*types.Func]bool
	foreverAt map[*types.Func]token.Position
	closedCls map[string]bool       // closed channels by declaration class
	closedObj map[types.Object]bool // closed channels by object (locals, vars)
	heldIn    map[*types.Func]heldState

	lockEdges  []lockEdge
	cycleDiags []cycleDiag
	genMutates map[*types.Func]bool // gendiscipline: functions that (transitively) mutate Collection data
	genBumps   map[*types.Func]bool // gendiscipline: functions that (transitively) bump its generation
}

// NewProgram indexes pkgs for interprocedural analysis. Facts are built
// lazily on first use.
func NewProgram(pkgs []*Package, cfg *Config) *Program {
	return &Program{Cfg: cfg, pkgs: pkgs}
}

func (prog *Program) ensure() {
	if prog.built {
		return
	}
	prog.built = true
	prog.facts = map[*types.Func]*funcFacts{}
	prog.pkgFiles = map[string]*Package{}
	prog.closedCls = map[string]bool{}
	prog.closedObj = map[types.Object]bool{}
	for _, pkg := range prog.pkgs {
		for _, f := range pkg.Files {
			prog.pkgFiles[pkg.Fset.Position(f.Pos()).Filename] = pkg
		}
		funcBodies(pkg, func(decl *ast.FuncDecl, _ *ast.File) {
			fn, _ := pkg.Info.Defs[decl.Name].(*types.Func)
			if fn == nil {
				return
			}
			ff := &funcFacts{fn: fn, decl: decl, pkg: pkg}
			collectIntervals(pkg, decl.Body.List, &ff.regions)
			ff.events = collectFuncEvents(pkg, decl, ff.regions)
			prog.facts[fn] = ff
			prog.factList = append(prog.factList, ff)
		})
		prog.indexCloses(pkg)
	}
	sort.Slice(prog.factList, func(i, j int) bool {
		a := prog.factList[i].pkg.Fset.Position(prog.factList[i].decl.Pos())
		b := prog.factList[j].pkg.Fset.Position(prog.factList[j].decl.Pos())
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	prog.computeAcquires()
	prog.computeForever()
	prog.computeHeldIn()
	prog.computeLockGraph()
}

// factsFor returns the indexed facts for every function declared in pkg.
func (prog *Program) factsFor(pkg *Package) []*funcFacts {
	prog.ensure()
	var out []*funcFacts
	for _, ff := range prog.factList {
		if ff.pkg == pkg {
			out = append(out, ff)
		}
	}
	return out
}

// ---- Declaration-site classes ---------------------------------------

// classOfExpr names the declaration site of a field or package-level
// variable expression; "" for locals and anything unresolvable.
func classOfExpr(pkg *Package, e ast.Expr) string {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[x]; ok {
			if v, ok := sel.Obj().(*types.Var); ok && v.IsField() {
				if named := namedOf(sel.Recv()); named != nil {
					return fmt.Sprintf("(%s.%s).%s", named.Obj().Pkg().Path(), named.Obj().Name(), v.Name())
				}
			}
			return ""
		}
		// Qualified package-level var: pkg.Mu.
		if v, ok := pkg.Info.Uses[x.Sel].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
	case *ast.Ident:
		if v, ok := objOf(pkg.Info, x).(*types.Var); ok && !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
	}
	return ""
}

// namedOf unwraps pointers to the named type, or nil.
func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	if named == nil || named.Obj() == nil || named.Obj().Pkg() == nil {
		return nil
	}
	return named
}

// exprObj resolves e to a field or variable object (for channel
// identity), or nil.
func exprObj(pkg *Package, e ast.Expr) types.Object {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[x]; ok {
			return sel.Obj()
		}
		return pkg.Info.Uses[x.Sel]
	case *ast.Ident:
		return objOf(pkg.Info, x)
	}
	return nil
}

// ---- Lock call classification and critical-section intervals --------

// syncLockCall recognizes Lock/RLock/Unlock/RUnlock on sync mutexes,
// returning the instance name, the receiver expression, "lock" or
// "unlock", and exclusivity.
func syncLockCall(pkg *Package, call *ast.CallExpr) (name string, recv ast.Expr, kind string, excl bool, ok bool) {
	f := callee(pkg.Info, call)
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != "sync" {
		return "", nil, "", false, false
	}
	rt := recvType(f)
	if !isNamed(rt, "sync", "Mutex") && !isNamed(rt, "sync", "RWMutex") {
		return "", nil, "", false, false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", nil, "", false, false
	}
	switch f.Name() {
	case "Lock":
		return types.ExprString(sel.X), sel.X, "lock", true, true
	case "RLock":
		return types.ExprString(sel.X), sel.X, "lock", false, true
	case "Unlock", "RUnlock":
		return types.ExprString(sel.X), sel.X, "unlock", false, true
	}
	return "", nil, "", false, false
}

func syncLockStmt(pkg *Package, st ast.Stmt) (name string, recv ast.Expr, kind string, excl bool, ok bool) {
	es, isExpr := st.(*ast.ExprStmt)
	if !isExpr {
		return "", nil, "", false, false
	}
	call, isCall := es.X.(*ast.CallExpr)
	if !isCall {
		return "", nil, "", false, false
	}
	return syncLockCall(pkg, call)
}

// collectIntervals is the one lock-region walker: it records each
// critical section as a position interval, so event collection and
// lockheld can ask "what is held here" by position alone. A `lock;
// defer unlock` pair holds to the end of its statement list, and an
// unmatched lock holds to the end of the list. An enclosing region is
// recorded before the regions nested in it.
func collectIntervals(pkg *Package, list []ast.Stmt, out *[]lockInterval) {
	i := 0
	for i < len(list) {
		st := list[i]
		if name, recv, kind, excl, ok := syncLockStmt(pkg, st); ok && kind == "lock" {
			lk := heldLock{name: name, class: LockClass(classOfExpr(pkg, recv)), excl: excl, pos: st.Pos()}
			if i+1 < len(list) && isDeferredUnlockStmt(pkg, list[i+1], name) {
				*out = append(*out, lockInterval{start: st.End(), end: list[len(list)-1].End(), lk: lk})
				collectIntervals(pkg, list[i+2:], out)
				return
			}
			end := len(list)
			for j := i + 1; j < len(list); j++ {
				if n, _, k, _, ok := syncLockStmt(pkg, list[j]); ok && k == "unlock" && n == name {
					end = j
					break
				}
			}
			endPos := st.End()
			if end < len(list) {
				endPos = list[end].Pos()
			} else if end > i+1 {
				endPos = list[end-1].End()
			}
			iv := lockInterval{start: st.End(), end: endPos, lk: lk}
			for j := i + 1; j < end && j < len(list); j++ {
				nestedUnlockTails(pkg, list[j], name, &iv.excl)
			}
			*out = append(*out, iv)
			collectIntervals(pkg, list[i+1:end], out)
			i = end + 1
			continue
		}
		collectIntervalsNested(pkg, st, out)
		i++
	}
}

func collectIntervalsNested(pkg *Package, st ast.Stmt, out *[]lockInterval) {
	switch x := st.(type) {
	case *ast.BlockStmt:
		collectIntervals(pkg, x.List, out)
	case *ast.IfStmt:
		collectIntervals(pkg, x.Body.List, out)
		if x.Else != nil {
			collectIntervalsNested(pkg, x.Else, out)
		}
	case *ast.ForStmt:
		collectIntervals(pkg, x.Body.List, out)
	case *ast.RangeStmt:
		collectIntervals(pkg, x.Body.List, out)
	case *ast.SwitchStmt:
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				collectIntervals(pkg, cc.Body, out)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				collectIntervals(pkg, cc.Body, out)
			}
		}
	case *ast.SelectStmt:
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				collectIntervals(pkg, cc.Body, out)
			}
		}
	case *ast.LabeledStmt:
		collectIntervalsNested(pkg, x.Stmt, out)
	}
}

// nestedUnlockTails records, for each unlock of the named lock nested
// inside st, the tail of its enclosing statement list — the branch runs
// those statements without the lock before returning or falling out.
func nestedUnlockTails(pkg *Package, st ast.Stmt, lockName string, out *[]posRange) {
	var scan func(s ast.Stmt)
	scanList := func(list []ast.Stmt) {
		for _, s := range list {
			if n, _, kind, _, ok := syncLockStmt(pkg, s); ok && kind == "unlock" && n == lockName {
				*out = append(*out, posRange{start: s.End(), end: list[len(list)-1].End()})
				continue
			}
			scan(s)
		}
	}
	scan = func(s ast.Stmt) {
		switch x := s.(type) {
		case *ast.BlockStmt:
			scanList(x.List)
		case *ast.IfStmt:
			scanList(x.Body.List)
			if x.Else != nil {
				scan(x.Else)
			}
		case *ast.ForStmt:
			scanList(x.Body.List)
		case *ast.RangeStmt:
			scanList(x.Body.List)
		case *ast.SwitchStmt:
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					scanList(cc.Body)
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					scanList(cc.Body)
				}
			}
		case *ast.SelectStmt:
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					scanList(cc.Body)
				}
			}
		case *ast.LabeledStmt:
			scan(x.Stmt)
		}
	}
	scan(st)
}

func isDeferredUnlockStmt(pkg *Package, st ast.Stmt, lockName string) bool {
	d, ok := st.(*ast.DeferStmt)
	if !ok {
		return false
	}
	name, _, kind, _, ok := syncLockCall(pkg, d.Call)
	return ok && kind == "unlock" && name == lockName
}

// ---- Event collection -----------------------------------------------

func heldAt(regions []lockInterval, pos token.Pos, inLit bool) []heldLock {
	if inLit {
		return nil
	}
	var h []heldLock
	for _, iv := range regions {
		if iv.contains(pos) {
			h = append(h, iv.lk)
		}
	}
	return h
}

// isDynamicCall reports whether call invokes a func-typed value: not a
// builtin, not a conversion, not a literal, and not statically bound.
func isDynamicCall(info *types.Info, call *ast.CallExpr) bool {
	fun := ast.Unparen(call.Fun)
	if tv, ok := info.Types[fun]; ok && (tv.IsType() || tv.IsBuiltin()) {
		return false
	}
	if _, ok := fun.(*ast.FuncLit); ok {
		return false
	}
	return callee(info, call) == nil
}

func builtinName(info *types.Info, call *ast.CallExpr) string {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			return b.Name()
		}
	}
	return ""
}

// writeTarget resolves the base of an assignment target to a struct
// field or package-level var, digging through indexing and derefs:
// `c.docs[id] = d` writes field docs.
func writeTarget(pkg *Package, e ast.Expr) (types.Object, *types.Named) {
	e = ast.Unparen(e)
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = ast.Unparen(x.X)
			continue
		case *ast.StarExpr:
			e = ast.Unparen(x.X)
			continue
		}
		break
	}
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[x]; ok {
			if v, ok := sel.Obj().(*types.Var); ok && v.IsField() {
				return v, namedOf(sel.Recv())
			}
			return nil, nil
		}
		if v, ok := pkg.Info.Uses[x.Sel].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v, nil
		}
	case *ast.Ident:
		if v, ok := objOf(pkg.Info, x).(*types.Var); ok && !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v, nil
		}
	}
	return nil, nil
}

// collectFuncEvents walks one declaration body and flattens it to
// events annotated with the held-lock set.
func collectFuncEvents(pkg *Package, decl *ast.FuncDecl, regions []lockInterval) []event {
	var evs []event
	var walk func(root ast.Node, inLit, inDefer, inGo bool)
	walk = func(root ast.Node, inLit, inDefer, inGo bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			if n == root {
				return true
			}
			switch x := n.(type) {
			case *ast.FuncLit:
				walk(x.Body, true, inDefer, inGo)
				return false
			case *ast.GoStmt:
				evs = append(evs, event{
					kind: evGo, pos: x.Pos(), held: heldAt(regions, x.Pos(), inLit),
					callee: callee(pkg.Info, x.Call), call: x.Call,
					inLit: inLit, inDefer: inDefer, inGo: inGo,
				})
				if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
					walk(lit.Body, true, inDefer, true)
				}
				for _, a := range x.Call.Args {
					walk(a, inLit, inDefer, inGo)
				}
				return false
			case *ast.DeferStmt:
				if _, _, kind, _, ok := syncLockCall(pkg, x.Call); ok && kind == "unlock" {
					return false
				}
				if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
					walk(lit.Body, true, true, inGo)
				} else {
					f := callee(pkg.Info, x.Call)
					evs = append(evs, event{
						kind: evCall, pos: x.Pos(), held: heldAt(regions, x.Pos(), inLit),
						callee: f, call: x.Call, dynamic: isDynamicCall(pkg.Info, x.Call),
						inLit: inLit, inDefer: true, inGo: inGo,
					})
				}
				for _, a := range x.Call.Args {
					walk(a, inLit, inDefer, inGo)
				}
				return false
			case *ast.CallExpr:
				if name, recv, kind, excl, ok := syncLockCall(pkg, x); ok {
					if kind == "lock" {
						evs = append(evs, event{
							kind: evAcquire, pos: x.Pos(), held: heldAt(regions, x.Pos(), inLit),
							class: LockClass(classOfExpr(pkg, recv)), excl: excl, name: name,
							inLit: inLit, inDefer: inDefer, inGo: inGo,
						})
					}
					return true
				}
				if f := callee(pkg.Info, x); f != nil {
					evs = append(evs, event{
						kind: evCall, pos: x.Pos(), held: heldAt(regions, x.Pos(), inLit),
						callee: f, call: x,
						inLit: inLit, inDefer: inDefer, inGo: inGo,
					})
				} else if bi := builtinName(pkg.Info, x); bi == "delete" && len(x.Args) > 0 {
					if obj, owner := writeTarget(pkg, x.Args[0]); obj != nil {
						evs = append(evs, event{
							kind: evWrite, pos: x.Pos(), held: heldAt(regions, x.Pos(), inLit),
							field: obj, fieldOwner: owner,
							inLit: inLit, inDefer: inDefer, inGo: inGo,
						})
					}
				} else if isDynamicCall(pkg.Info, x) {
					evs = append(evs, event{
						kind: evCall, pos: x.Pos(), held: heldAt(regions, x.Pos(), inLit),
						call: x, dynamic: true,
						inLit: inLit, inDefer: inDefer, inGo: inGo,
					})
				}
				return true
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					if obj, owner := writeTarget(pkg, lhs); obj != nil {
						evs = append(evs, event{
							kind: evWrite, pos: lhs.Pos(), held: heldAt(regions, lhs.Pos(), inLit),
							field: obj, fieldOwner: owner,
							inLit: inLit, inDefer: inDefer, inGo: inGo,
						})
					}
				}
				return true
			case *ast.IncDecStmt:
				if obj, owner := writeTarget(pkg, x.X); obj != nil {
					evs = append(evs, event{
						kind: evWrite, pos: x.Pos(), held: heldAt(regions, x.Pos(), inLit),
						field: obj, fieldOwner: owner,
						inLit: inLit, inDefer: inDefer, inGo: inGo,
					})
				}
				return true
			}
			return true
		})
	}
	walk(decl.Body, false, false, false)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].pos < evs[j].pos })
	return evs
}

// ---- Closed-channel index --------------------------------------------

// indexCloses records every close(x) in pkg, by object identity and by
// declaration class, so goroleak can prove "this channel is closed
// somewhere" across functions and packages.
func (prog *Program) indexCloses(pkg *Package) {
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || builtinName(pkg.Info, call) != "close" || len(call.Args) != 1 {
				return true
			}
			arg := ast.Unparen(call.Args[0])
			if cls := classOfExpr(pkg, arg); cls != "" {
				prog.closedCls[cls] = true
			}
			if obj := exprObj(pkg, arg); obj != nil {
				prog.closedObj[obj] = true
			}
			return true
		})
	}
}

// ---- Acquires fixpoint ----------------------------------------------

// computeAcquires propagates "may acquire class C" bottom-up over
// static calls: acquires(f) = direct acquisitions ∪ acquires of every
// statically-bound callee reached outside literals and go statements.
func (prog *Program) computeAcquires() {
	prog.acquires = map[*types.Func]map[LockClass]token.Pos{}
	for _, ff := range prog.factList {
		m := map[LockClass]token.Pos{}
		for _, ev := range ff.events {
			if ev.kind == evAcquire && !ev.inLit && !ev.inGo && ev.class != "" {
				if _, ok := m[ev.class]; !ok {
					m[ev.class] = ev.pos
				}
			}
		}
		prog.acquires[ff.fn] = m
	}
	for changed := true; changed; {
		changed = false
		for _, ff := range prog.factList {
			m := prog.acquires[ff.fn]
			for _, ev := range ff.events {
				if ev.kind != evCall || ev.callee == nil || ev.inLit || ev.inGo {
					continue
				}
				for cls := range prog.acquires[ev.callee] {
					if _, ok := m[cls]; !ok {
						m[cls] = ev.pos
						changed = true
					}
				}
			}
		}
	}
}

// ---- Forever (non-termination) fixpoint -----------------------------

// chanQualified reports whether receiving from e is a sanctioned
// termination signal: a Done() channel (context-style cancellation),
// time.After, or a channel that some function in the program closes.
func (prog *Program) chanQualified(pkg *Package, e ast.Expr) bool {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
			return true
		}
		if f := callee(pkg.Info, call); f != nil && f.Pkg() != nil && f.Pkg().Path() == "time" && f.Name() == "After" {
			return true
		}
		return false
	}
	if cls := classOfExpr(pkg, e); cls != "" && prog.closedCls[cls] {
		return true
	}
	if obj := exprObj(pkg, e); obj != nil && prog.closedObj[obj] {
		return true
	}
	return false
}

// escapeInfo describes one way out of a loop.
type escapeInfo struct {
	inComm    bool // the escape sits inside a select communication clause
	qualified bool // that clause receives from a qualified channel
}

// commRecvChan extracts the channel of a receive-comm statement.
func commRecvChan(c ast.Stmt) ast.Expr {
	switch x := c.(type) {
	case *ast.ExprStmt:
		if u, ok := ast.Unparen(x.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			return u.X
		}
	case *ast.AssignStmt:
		if len(x.Rhs) == 1 {
			if u, ok := ast.Unparen(x.Rhs[0]).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				return u.X
			}
		}
	}
	return nil
}

// collectEscapes gathers every statement that leaves the loop: returns,
// breaks targeting it, and panics. Function literals are opaque. The
// walk dispatches on statement kind directly so nested breakables
// (inner loops, switches, selects) retarget unlabeled breaks.
func collectEscapes(prog *Program, pkg *Package, body *ast.BlockStmt, loopLabel string) []escapeInfo {
	var out []escapeInfo
	var walk func(n ast.Node, breakDepth int, inComm, commQual bool)
	walk = func(n ast.Node, breakDepth int, inComm, commQual bool) {
		if n == nil {
			return
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			return
		case *ast.ForStmt:
			walk(x.Body, breakDepth+1, inComm, commQual)
			return
		case *ast.RangeStmt:
			walk(x.Body, breakDepth+1, inComm, commQual)
			return
		case *ast.SwitchStmt:
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					for _, st := range cc.Body {
						walk(st, breakDepth+1, inComm, commQual)
					}
				}
			}
			return
		case *ast.TypeSwitchStmt:
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					for _, st := range cc.Body {
						walk(st, breakDepth+1, inComm, commQual)
					}
				}
			}
			return
		case *ast.SelectStmt:
			for _, c := range x.Body.List {
				cc, ok := c.(*ast.CommClause)
				if !ok {
					continue
				}
				qual := false
				if ch := commRecvChan(cc.Comm); ch != nil {
					qual = prog.chanQualified(pkg, ch)
				}
				for _, st := range cc.Body {
					walk(st, breakDepth+1, true, qual)
				}
			}
			return
		case *ast.BranchStmt:
			if x.Tok != token.BREAK {
				return
			}
			if x.Label != nil {
				if x.Label.Name == loopLabel && loopLabel != "" {
					out = append(out, escapeInfo{inComm: inComm, qualified: commQual})
				}
			} else if breakDepth == 0 {
				out = append(out, escapeInfo{inComm: inComm, qualified: commQual})
			}
			return
		case *ast.ReturnStmt:
			out = append(out, escapeInfo{inComm: inComm, qualified: commQual})
			return
		}
		// Anything else: visit children, re-dispatching statements that
		// change the escape context and recognizing terminating calls.
		ast.Inspect(n, func(m ast.Node) bool {
			if m == n {
				return true
			}
			switch y := m.(type) {
			case *ast.FuncLit, *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt,
				*ast.TypeSwitchStmt, *ast.SelectStmt, *ast.BranchStmt, *ast.ReturnStmt:
				walk(m, breakDepth, inComm, commQual)
				return false
			case *ast.CallExpr:
				if isTerminatingCall(pkg, y) {
					out = append(out, escapeInfo{inComm: inComm, qualified: commQual})
				}
			}
			return true
		})
	}
	walk(body, 0, false, false)
	return out
}

// isTerminatingCall recognizes calls that never return: panic, os.Exit,
// runtime.Goexit, log.Fatal*.
func isTerminatingCall(pkg *Package, call *ast.CallExpr) bool {
	if builtinName(pkg.Info, call) == "panic" {
		return true
	}
	f := callee(pkg.Info, call)
	if f == nil || f.Pkg() == nil {
		return false
	}
	switch f.Pkg().Path() {
	case "os":
		return f.Name() == "Exit"
	case "runtime":
		return f.Name() == "Goexit"
	case "log":
		return strings.HasPrefix(f.Name(), "Fatal")
	}
	return false
}

// loopForever decides whether one loop provably never exits. A loop is
// forever when it is unbounded (no condition, or ranging over a
// never-closed channel) and either has no escape at all, or every
// escape sits in select clauses none of which receive a termination
// signal. A conditional escape outside a select is assumed reachable —
// goroleak proves the absence of any exit, not the liveness of one.
func (prog *Program) loopForever(pkg *Package, loop ast.Stmt, label string) bool {
	var body *ast.BlockStmt
	switch l := loop.(type) {
	case *ast.ForStmt:
		if l.Cond != nil {
			return false
		}
		body = l.Body
	case *ast.RangeStmt:
		tv, ok := pkg.Info.Types[l.X]
		if !ok {
			return false
		}
		if _, isChan := tv.Type.Underlying().(*types.Chan); !isChan {
			return false
		}
		if prog.chanQualified(pkg, l.X) {
			return false
		}
		body = l.Body
	default:
		return false
	}
	escs := collectEscapes(prog, pkg, body, label)
	if len(escs) == 0 {
		return true
	}
	for _, e := range escs {
		if !e.inComm || e.qualified {
			return false
		}
	}
	return true
}

// bodyForever scans a body (skipping literals) for a forever loop,
// returning its position. Labels are pre-indexed so `break L` inside a
// labeled loop resolves against the right target.
func (prog *Program) bodyForever(pkg *Package, body *ast.BlockStmt) (token.Pos, bool) {
	labels := map[ast.Stmt]string{}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if l, ok := n.(*ast.LabeledStmt); ok {
			labels[l.Stmt] = l.Label.Name
		}
		return true
	})
	var found token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		if found != token.NoPos {
			return false
		}
		switch n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt, *ast.RangeStmt:
			st := n.(ast.Stmt)
			if prog.loopForever(pkg, st, labels[st]) {
				found = n.Pos()
				return false
			}
		}
		return true
	})
	return found, found != token.NoPos
}

// computeForever propagates non-termination up the static call graph:
// a function is forever if its own body contains a forever loop or it
// unconditionally calls (outside literals and go statements) a forever
// function.
func (prog *Program) computeForever() {
	prog.forever = map[*types.Func]bool{}
	prog.foreverAt = map[*types.Func]token.Position{}
	for _, ff := range prog.factList {
		if pos, ok := prog.bodyForever(ff.pkg, ff.decl.Body); ok {
			prog.forever[ff.fn] = true
			prog.foreverAt[ff.fn] = ff.pkg.Fset.Position(pos)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, ff := range prog.factList {
			if prog.forever[ff.fn] {
				continue
			}
			for _, ev := range ff.events {
				if ev.kind != evCall || ev.callee == nil || ev.inLit || ev.inGo {
					continue
				}
				if prog.forever[ev.callee] {
					prog.forever[ff.fn] = true
					prog.foreverAt[ff.fn] = prog.foreverAt[ev.callee]
					changed = true
					break
				}
			}
		}
	}
}

// litForever checks a go-statement literal the same way: its own loops
// plus any statically-bound call to a forever function.
func (prog *Program) litForever(pkg *Package, lit *ast.FuncLit) (token.Position, bool) {
	if pos, ok := prog.bodyForever(pkg, lit.Body); ok {
		return pkg.Fset.Position(pos), true
	}
	var hit token.Position
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if inner, ok := n.(*ast.FuncLit); ok && inner != lit {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if f := callee(pkg.Info, call); f != nil && prog.forever[f] {
				hit = prog.foreverAt[f]
				found = true
				return false
			}
		}
		return true
	})
	return hit, found
}

// ---- Must-hold (calledHeld) fixpoint --------------------------------

// computeHeldIn computes, for every function, the set of lock classes
// guaranteed exclusively held at every static call site (transitively:
// a site inside f contributes its local held set plus f's own
// guarantee). Functions with no static call sites — entry points,
// exported API — get the empty guarantee. Calls from literals and go
// statements contribute the empty set: the literal runs later, under
// unknown locks. This is a must-analysis: the intersection over sites,
// starting from top.
func (prog *Program) computeHeldIn() {
	sites := map[*types.Func][]heldState{}
	siteCallers := map[*types.Func][]*types.Func{}
	for _, ff := range prog.factList {
		for _, ev := range ff.events {
			if (ev.kind != evCall && ev.kind != evGo) || ev.callee == nil {
				continue
			}
			if _, isModule := prog.facts[ev.callee]; !isModule {
				continue
			}
			st := heldState{set: map[LockClass]bool{}}
			if !ev.inLit && !ev.inGo && ev.kind != evGo {
				for _, h := range ev.held {
					if h.excl && h.class != "" {
						st.set[h.class] = true
					}
				}
				siteCallers[ev.callee] = append(siteCallers[ev.callee], ff.fn)
			} else {
				siteCallers[ev.callee] = append(siteCallers[ev.callee], nil)
			}
			sites[ev.callee] = append(sites[ev.callee], st)
		}
	}
	prog.heldIn = map[*types.Func]heldState{}
	for _, ff := range prog.factList {
		if len(sites[ff.fn]) == 0 {
			prog.heldIn[ff.fn] = heldState{set: map[LockClass]bool{}}
		} else {
			prog.heldIn[ff.fn] = heldState{top: true}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, ff := range prog.factList {
			ss := sites[ff.fn]
			if len(ss) == 0 {
				continue
			}
			acc := heldState{top: true}
			for i, st := range ss {
				eff := heldState{set: map[LockClass]bool{}}
				for c := range st.set {
					eff.set[c] = true
				}
				if caller := siteCallers[ff.fn][i]; caller != nil {
					cg := prog.heldIn[caller]
					if cg.top {
						eff.top = true
					} else {
						for c := range cg.set {
							eff.set[c] = true
						}
					}
				}
				acc = intersectHeld(acc, eff)
			}
			old := prog.heldIn[ff.fn]
			if !heldEqual(old, acc) {
				prog.heldIn[ff.fn] = acc
				changed = true
			}
		}
	}
}

func intersectHeld(a, b heldState) heldState {
	if a.top {
		return b
	}
	if b.top {
		return a
	}
	out := heldState{set: map[LockClass]bool{}}
	for c := range a.set {
		if b.set[c] {
			out.set[c] = true
		}
	}
	return out
}

func heldEqual(a, b heldState) bool {
	if a.top != b.top {
		return false
	}
	if a.top {
		return true
	}
	if len(a.set) != len(b.set) {
		return false
	}
	for c := range a.set {
		if !b.set[c] {
			return false
		}
	}
	return true
}

// guaranteedHeld reports whether class is exclusively held at ev inside
// fn: locally (the event's held set) or by every caller (heldIn).
func (prog *Program) guaranteedHeld(fn *types.Func, ev event, class LockClass) bool {
	for _, h := range ev.held {
		if h.excl && h.class == class {
			return true
		}
	}
	g := prog.heldIn[fn]
	return !g.top && g.set[class]
}

// ---- Lock-order graph and cycles ------------------------------------

type cycleDiag struct {
	witness token.Position
	message string
}

// computeLockGraph records every "acquire B while holding A" edge —
// direct acquisitions and, transitively, calls into functions that may
// acquire — then condenses the class graph and prepares one diagnostic
// per strongly connected component with a cycle.
func (prog *Program) computeLockGraph() {
	type edgeKey struct{ from, to LockClass }
	seen := map[edgeKey]bool{}
	for _, ff := range prog.factList {
		for _, ev := range ff.events {
			if ev.inLit || ev.inGo {
				continue
			}
			switch ev.kind {
			case evAcquire:
				if ev.class == "" {
					continue
				}
				for _, h := range ev.held {
					if h.class == "" || (h.class == ev.class && h.name == ev.name) {
						continue
					}
					k := edgeKey{h.class, ev.class}
					if !seen[k] {
						seen[k] = true
						prog.lockEdges = append(prog.lockEdges, lockEdge{
							From: h.class, To: ev.class,
							Witness: ff.pkg.Fset.Position(ev.pos),
							Func:    ff.fn.FullName(),
						})
					}
				}
			case evCall:
				if ev.callee == nil || len(ev.held) == 0 {
					continue
				}
				for cls := range prog.acquires[ev.callee] {
					for _, h := range ev.held {
						if h.class == "" {
							continue
						}
						k := edgeKey{h.class, cls}
						if !seen[k] {
							seen[k] = true
							prog.lockEdges = append(prog.lockEdges, lockEdge{
								From: h.class, To: cls,
								Witness: ff.pkg.Fset.Position(ev.pos),
								Func:    ff.fn.FullName(),
							})
						}
					}
				}
			}
		}
	}
	sort.Slice(prog.lockEdges, func(i, j int) bool {
		if prog.lockEdges[i].From != prog.lockEdges[j].From {
			return prog.lockEdges[i].From < prog.lockEdges[j].From
		}
		return prog.lockEdges[i].To < prog.lockEdges[j].To
	})
	prog.findCycles()
}

// findCycles condenses the lock-class digraph into strongly connected
// components; any component with two or more classes — or a self-loop —
// is an acquisition-order hazard.
func (prog *Program) findCycles() {
	adj := map[LockClass][]lockEdge{}
	var nodes []LockClass
	nodeSeen := map[LockClass]bool{}
	for _, e := range prog.lockEdges {
		adj[e.From] = append(adj[e.From], e)
		for _, c := range []LockClass{e.From, e.To} {
			if !nodeSeen[c] {
				nodeSeen[c] = true
				nodes = append(nodes, c)
			}
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })

	// Tarjan SCC, iterative enough for our graph sizes via recursion.
	index := map[LockClass]int{}
	low := map[LockClass]int{}
	onStack := map[LockClass]bool{}
	var stack []LockClass
	counter := 0
	var sccs [][]LockClass
	var strongconnect func(v LockClass)
	strongconnect = func(v LockClass) {
		index[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		for _, e := range adj[v] {
			w := e.To
			if _, ok := index[w]; !ok {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []LockClass
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, comp)
		}
	}
	for _, v := range nodes {
		if _, ok := index[v]; !ok {
			strongconnect(v)
		}
	}

	for _, comp := range sccs {
		inComp := map[LockClass]bool{}
		for _, c := range comp {
			inComp[c] = true
		}
		var cyclic []lockEdge
		for _, c := range comp {
			for _, e := range adj[c] {
				if inComp[e.To] && (len(comp) > 1 || e.To == e.From) {
					cyclic = append(cyclic, e)
				}
			}
		}
		if len(cyclic) == 0 {
			continue
		}
		sort.Slice(cyclic, func(i, j int) bool {
			if cyclic[i].From != cyclic[j].From {
				return cyclic[i].From < cyclic[j].From
			}
			return cyclic[i].To < cyclic[j].To
		})
		var parts []string
		for _, e := range cyclic {
			parts = append(parts, fmt.Sprintf("%s acquired while holding %s (%s, %s)",
				shortClass(e.To), shortClass(e.From), e.Func, posString(e.Witness)))
		}
		prog.cycleDiags = append(prog.cycleDiags, cycleDiag{
			witness: cyclic[0].Witness,
			message: "lock-order cycle: " + strings.Join(parts, "; ") + " — acquire these locks in one consistent order",
		})
	}
}

// shortClass trims the module path from a class for readable messages.
func shortClass(c LockClass) string {
	s := string(c)
	i := strings.LastIndex(s, "/")
	if i < 0 {
		return s
	}
	tail := s[i+1:]
	if strings.HasPrefix(s, "(") && !strings.HasPrefix(tail, "(") {
		return "(" + tail
	}
	return tail
}

func posString(p token.Position) string {
	name := p.Filename
	if i := strings.LastIndex(name, "/"); i >= 0 {
		name = name[i+1:]
	}
	return fmt.Sprintf("%s:%d", name, p.Line)
}
