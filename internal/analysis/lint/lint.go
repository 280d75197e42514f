// Package lint is a repo-native static-analysis suite for the matproj
// datastore. It enforces invariants the type system cannot see — the
// ones the paper's datastore credibility rests on:
//
//   - clockdiscipline: no wall-clock reads outside the injectable
//     clock (determinism of the fault/lease machinery).
//   - seededrand: no global math/rand in internal/ (determinism of
//     faults.Injector replay).
//   - fsyncerr: no unchecked Sync/Flush/Write/Close errors on write
//     paths (crash safety, §IV-C).
//   - docaliasing: documents returned by datastore/queryengine reads
//     are never mutated without an intervening Copy (the store, the
//     query engine, and the wire share them).
//   - lockheld: no file/network I/O or channel send while a sync
//     mutex is held in datastore/cluster/fireworks.
//   - wrapcheck: cross-package error returns in cluster/restapi wrap
//     with %w or map to a typed sentinel (retry classification).
//
// lockorder, goroleak, gendiscipline and atomicmix cover lock order,
// goroutine termination, the cache-generation protocol and atomics.
//
// Everything here is stdlib-only: go/parser + go/ast + go/types with
// the source importer, matching the module's no-dependency policy.
//
// Suppression: a finding is silenced by
//
//	//lint:ignore <analyzer>[,<analyzer>] <reason>
//
// on the offending line or the line directly above it, or for a whole
// file by //lint:file-ignore at any top-level comment. The reason is
// mandatory; a directive without one is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one finding, attributed to an analyzer and a position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path; analyzers scope themselves by its
	// module-relative form (see Config.Rel).
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects type-checker complaints. Analysis still runs
	// on partial information; the driver surfaces them separately.
	TypeErrors []error
}

// Analyzer is one named invariant check.
type Analyzer struct {
	Name string
	// Doc is a one-line description of the invariant guarded.
	Doc string
	Run func(*Pass)
}

// Pass is the per-(analyzer, package) context handed to Run.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Cfg      *Config
	// Prog is the shared interprocedural index (call graph, summaries)
	// over every package in the run. Built lazily on first use, so the
	// intraprocedural analyzers pay nothing for it.
	Prog  *Program
	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Config names the module under analysis. Where each analyzer applies
// is fixed next to the analyzer, as module-relative path prefixes
// ("internal/obs" matches internal/obs and internal/obs/...).
type Config struct {
	// ModulePath is the module's import-path prefix ("matproj").
	ModulePath string
}

// Rel returns path relative to the module root ("" for the root
// package, "internal/obs" for matproj/internal/obs). Paths outside the
// module are returned unchanged.
func (c *Config) Rel(path string) string {
	if path == c.ModulePath {
		return ""
	}
	return strings.TrimPrefix(path, c.ModulePath+"/")
}

// inScope reports whether the pass's package lies under any of the
// module-relative prefixes (whole path elements).
func (p *Pass) inScope(prefixes []string) bool {
	rel := p.Cfg.Rel(p.Pkg.Path)
	for _, pre := range prefixes {
		if rel == pre || strings.HasPrefix(rel, pre+"/") {
			return true
		}
	}
	return false
}

// Analyzers returns the full suite in stable order. lockorder,
// goroleak and gendiscipline are built on the shared call-graph layer
// (callgraph.go); lockheld reads its critical sections from it.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		ClockDiscipline,
		SeededRand,
		FsyncErr,
		DocAliasing,
		LockHeld,
		WrapCheck,
		LockOrder,
		GoroLeak,
		GenDiscipline,
		AtomicMix,
	}
}

// Run applies the analyzers to one package and returns surviving
// diagnostics: suppression directives are honored, malformed ones are
// reported under the pseudo-analyzer "lint". The interprocedural
// analyzers see a single-package Program — fixtures stay
// self-contained; use RunProgram for whole-module analysis.
func Run(pkg *Package, cfg *Config, analyzers []*Analyzer) []Diagnostic {
	return runOne(NewProgram([]*Package{pkg}, cfg), pkg, cfg, analyzers)
}

func runOne(prog *Program, pkg *Package, cfg *Config, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Pkg: pkg, Cfg: cfg, Prog: prog, diags: &diags}
		a.Run(pass)
	}
	idx, bad := buildIgnoreIndex(pkg)
	diags = append(diags, bad...)
	kept := diags[:0]
	for _, d := range diags {
		if !idx.suppressed(d) {
			kept = append(kept, d)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i].Pos, kept[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return kept[i].Analyzer < kept[j].Analyzer
	})
	return kept
}

// RunProgram runs the analyzers over the report packages against an
// existing Program, which may index a superset (mplint builds the
// Program over the whole module so package patterns narrow reporting,
// not the interprocedural horizon).
func RunProgram(prog *Program, report []*Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, p := range report {
		out = append(out, runOne(prog, p, prog.Cfg, analyzers)...)
	}
	return out
}

// ---- Suppression ----------------------------------------------------

var ignoreRe = regexp.MustCompile(`^//\s*lint:(ignore|file-ignore)\s+(\S+)(\s+(.*))?$`)

type ignoreDirective struct {
	line      int
	analyzers map[string]bool
	wholeFile bool
}

type ignoreIndex struct {
	// byFile maps filename to its directives.
	byFile map[string][]ignoreDirective
}

func buildIgnoreIndex(pkg *Package) (*ignoreIndex, []Diagnostic) {
	idx := &ignoreIndex{byFile: map[string][]ignoreDirective{}}
	var bad []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					if strings.HasPrefix(strings.TrimPrefix(c.Text, "//"), "lint:") {
						bad = append(bad, Diagnostic{
							Analyzer: "lint",
							Pos:      pkg.Fset.Position(c.Pos()),
							Message:  "malformed lint directive (want //lint:ignore <analyzer> <reason>)",
						})
					}
					continue
				}
				if strings.TrimSpace(m[4]) == "" {
					bad = append(bad, Diagnostic{
						Analyzer: "lint",
						Pos:      pkg.Fset.Position(c.Pos()),
						Message:  fmt.Sprintf("lint:%s directive needs a reason", m[1]),
					})
					continue
				}
				names := map[string]bool{}
				for _, n := range strings.Split(m[2], ",") {
					names[strings.TrimSpace(n)] = true
				}
				pos := pkg.Fset.Position(c.Pos())
				idx.byFile[pos.Filename] = append(idx.byFile[pos.Filename], ignoreDirective{
					line:      pos.Line,
					analyzers: names,
					wholeFile: m[1] == "file-ignore",
				})
			}
		}
	}
	return idx, bad
}

// suppressed reports whether d is covered by a directive: file-wide, on
// the same line, or on the line directly above.
func (idx *ignoreIndex) suppressed(d Diagnostic) bool {
	for _, dir := range idx.byFile[d.Pos.Filename] {
		if !dir.analyzers[d.Analyzer] {
			continue
		}
		if dir.wholeFile || dir.line == d.Pos.Line || dir.line+1 == d.Pos.Line {
			return true
		}
	}
	return false
}
