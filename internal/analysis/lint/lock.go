package lint

import (
	"go/ast"
	"go/token"
)

// LockHeld reports file/network I/O, blocking sleeps, and channel
// sends performed while a sync.Mutex/RWMutex is held in the serving
// packages (datastore, cluster, fireworks). The datastore plays four
// roles at once (Fig. 2); a critical section that blocks on a disk or
// a peer stalls every one of them, and a channel send under a lock is
// a deadlock waiting for the right interleaving.
//
// The analysis is intraprocedural. Critical sections come from the
// shared region walker (collectIntervals in callgraph.go): a region
// starts at an x.Lock() / x.RLock() statement and ends at the matching
// unlock in the same statement list, or — for the `mu.Lock(); defer
// mu.Unlock()` idiom — at the end of that list; a branch tail after an
// early unlock is outside it. Function literals started inside a region
// (goroutines) are not considered held.
var LockHeld = &Analyzer{
	Name: "lockheld",
	Doc:  "I/O or channel send while holding a mutex stalls every serving role sharing the lock",
	Run:  runLockHeld,
}

// lockScope lists where lockheld applies: the packages serving the
// Fig. 2 roles.
var lockScope = []string{"internal/datastore", "internal/cluster", "internal/fireworks"}

func runLockHeld(p *Pass) {
	if !p.inScope(lockScope) {
		return
	}
	for _, ff := range p.Prog.factsFor(p.Pkg) {
		if len(ff.regions) == 0 {
			continue
		}
		// innermost names the most recently acquired lock held at pos
		// (collectIntervals records enclosing regions first).
		innermost := func(pos token.Pos) (string, bool) {
			held := heldAt(ff.regions, pos, false)
			if len(held) == 0 {
				return "", false
			}
			return held[len(held)-1].name, true
		}
		ast.Inspect(ff.decl.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.SendStmt:
				if lockName, ok := innermost(x.Arrow); ok {
					p.Reportf(x.Arrow,
						"channel send while holding %s; an unready receiver deadlocks every caller of this lock", lockName)
				}
			case *ast.CallExpr:
				if why := ioCallKind(p, x); why != "" {
					if lockName, ok := innermost(x.Pos()); ok {
						p.Reportf(x.Pos(),
							"%s while holding %s; stage the I/O outside the critical section", why, lockName)
					}
				}
			}
			return true
		})
	}
}

// ioCallKind classifies a call as blocking I/O, returning a short
// description, or "".
func ioCallKind(p *Pass, call *ast.CallExpr) string {
	f := callee(p.Pkg.Info, call)
	if f == nil || f.Pkg() == nil {
		return ""
	}
	path := f.Pkg().Path()
	recv := recvType(f)
	switch {
	case path == "os" && recv == nil && osIOFuncs[f.Name()]:
		return "os." + f.Name() + " (file I/O)"
	case isNamed(recv, "os", "File"):
		return "(*os.File)." + f.Name() + " (file I/O)"
	case isNamed(recv, "bufio", "Writer") && f.Name() == "Flush":
		return "bufio flush (file I/O)"
	case path == "net/http" || path == "net":
		return path + " call (network I/O)"
	case path == "time" && f.Name() == "Sleep":
		return "time.Sleep (blocking)"
	}
	return ""
}

var osIOFuncs = map[string]bool{
	"Create": true, "CreateTemp": true, "Open": true, "OpenFile": true,
	"Remove": true, "RemoveAll": true, "Rename": true, "Truncate": true,
	"Mkdir": true, "MkdirAll": true, "MkdirTemp": true,
	"ReadFile": true, "WriteFile": true, "ReadDir": true,
	"Chmod": true, "Chtimes": true, "Link": true, "Symlink": true,
	"Stat": true, "Lstat": true, "Readlink": true, "Chown": true, "Lchown": true,
}
