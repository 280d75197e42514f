package lint

import (
	"go/ast"
	"go/types"
)

// GoroLeak demands a provable termination path for every go statement:
// the spawned body (and everything it statically calls) must not loop
// forever without an exit through a context Done channel, a channel
// some function in the program closes, a time.After, or a bounded
// loop. The router health loop, replog tails, and singleflight waiters
// are exactly the goroutines that outlive their owner when this fails —
// under the paper's workload a router restart per deploy, each leaked
// ticker goroutine holds its connection pool forever.
//
// A second rule guards the waiter side of singleflight-style fan-ins: a
// wg.Done() that is not deferred, with a dynamic call between the Add
// and the Done, leaks every waiter when that call panics.
//
// Soundness boundary: a conditional escape (return under an if) is
// assumed reachable — the analyzer proves the absence of any exit, not
// the liveness of one. Dynamic go targets cannot be analyzed and are
// reported as unprovable; prove them at the call site or suppress with
// a reason.
var GoroLeak = &Analyzer{
	Name: "goroleak",
	Doc:  "every go statement needs a provable termination path (context, closed channel, bounded loop)",
	Run:  runGoroLeak,
}

// goroScope lists where goroleak reports.
var goroScope = []string{"internal"}

func runGoroLeak(p *Pass) {
	if !p.inScope(goroScope) {
		return
	}
	prog := p.Prog
	prog.ensure()
	for _, ff := range prog.factsFor(p.Pkg) {
		for _, ev := range ff.events {
			if ev.kind != evGo {
				continue
			}
			if lit, ok := ev.call.Fun.(*ast.FuncLit); ok {
				if at, bad := prog.litForever(p.Pkg, lit); bad {
					p.Reportf(ev.pos,
						"goroutine never terminates: unbounded loop at %s has no exit via return, context cancel, or a closed channel; it leaks when its owner stops", posString(at))
				}
				continue
			}
			if ev.callee == nil {
				p.Reportf(ev.pos,
					"goroutine target is a func value; termination cannot be proven — name the function or add //lint:ignore goroleak <reason>")
				continue
			}
			if _, isModule := prog.facts[ev.callee]; !isModule {
				continue // standard library: assumed terminating
			}
			if prog.forever[ev.callee] {
				p.Reportf(ev.pos,
					"goroutine %s never terminates: unbounded loop at %s has no exit via return, context cancel, or a closed channel; it leaks when its owner stops",
					ev.callee.Name(), posString(prog.foreverAt[ev.callee]))
			}
		}
		checkUndeferredDone(p, ff)
	}
}

// checkUndeferredDone flags the pattern
//
//	wg.Add(1); ...; v, err := compute(); ...; wg.Done()
//
// where compute is a dynamic call: if it panics, Done never runs and
// every goroutine blocked in wg.Wait() hangs forever. The fix is
// `defer`, or a recover that still signals completion.
func checkUndeferredDone(p *Pass, ff *funcFacts) {
	type wgCall struct {
		ev   event
		name string // receiver expression, e.g. "f.wg"
	}
	var adds, dones []wgCall
	var dyns []event
	deferredDone := map[string]bool{}
	for _, ev := range ff.events {
		if ev.kind != evCall {
			continue
		}
		if ev.dynamic {
			if !ev.inLit && !ev.inDefer {
				dyns = append(dyns, ev)
			}
			continue
		}
		if ev.callee == nil {
			continue
		}
		if !isNamed(recvType(ev.callee), "sync", "WaitGroup") {
			continue
		}
		name := wgInstance(ev.call)
		switch ev.callee.Name() {
		case "Add":
			if !ev.inLit {
				adds = append(adds, wgCall{ev, name})
			}
		case "Done":
			if ev.inDefer {
				deferredDone[name] = true
			} else if !ev.inLit {
				dones = append(dones, wgCall{ev, name})
			}
		}
	}
	for _, d := range dones {
		if deferredDone[d.name] {
			continue
		}
		for _, dyn := range dyns {
			if dyn.pos >= d.ev.pos {
				continue
			}
			for _, a := range adds {
				if a.name == d.name && a.ev.pos < dyn.pos {
					p.Reportf(d.ev.pos,
						"%s.Done() is skipped if the call at %s panics, leaving waiters blocked in Wait forever; defer the Done",
						d.name, posString(p.Pkg.Fset.Position(dyn.pos)))
					return
				}
			}
		}
	}
}

// wgInstance names the WaitGroup receiver expression of a method call.
func wgInstance(call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return types.ExprString(sel.X)
	}
	return ""
}
