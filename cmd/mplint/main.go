// mplint runs the repo-native static-analysis suite over the module:
// ten analyzers enforcing the datastore's concurrency, determinism,
// and durability invariants (see internal/analysis/lint).
//
// Exit-code contract (scripts/check.sh relies on it):
//
//	0 — every analyzer came back clean
//	1 — at least one finding (printed one per line)
//	2 — usage error, load failure, or a package that does not type-check
//
// Usage:
//
//	mplint [-list] [-C dir] [patterns]
//
// -list prints the analyzers and exits. -C names the module root
// (default: the nearest go.mod above the working directory).
//
// Patterns are module-relative ("./...", "internal/cluster",
// "./internal/..."); the default is the whole module. The
// interprocedural fact base (call graph, lock graph, termination and
// held-lock summaries) is always built over the whole module, so
// findings in a filtered run still see cross-package facts; patterns
// only restrict which packages are reported on.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"matproj/internal/analysis/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mplint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list  = fs.Bool("list", false, "list analyzers and exit")
		chdir = fs.String("C", "", "module root (default: nearest go.mod above the working directory)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	root := *chdir
	if root == "" {
		var err error
		root, err = findModuleRoot()
		if err != nil {
			fmt.Fprintln(stderr, "mplint:", err)
			return 2
		}
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintln(stderr, "mplint:", err)
		return 2
	}
	all, err := loader.LoadAll()
	if err != nil {
		fmt.Fprintln(stderr, "mplint:", err)
		return 2
	}
	cfg := &lint.Config{ModulePath: loader.ModulePath}
	pkgs := filterPackages(all, cfg, fs.Args())

	broken := false
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			fmt.Fprintf(stderr, "mplint: %s: type error: %v\n", p.Path, terr)
			broken = true
		}
	}
	if broken {
		return 2
	}

	// The fact base spans the whole module regardless of the report
	// filter: a goroutine in a filtered-out package may close a channel
	// a reported package drains, and vice versa.
	diags := lint.RunProgram(lint.NewProgram(all, cfg), pkgs, analyzers)
	for _, d := range diags {
		fmt.Fprintln(stdout, relDiag(root, d))
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "mplint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

func relDiag(root string, d lint.Diagnostic) string {
	file := d.Pos.Filename
	if r, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(r, "..") {
		file = r
	}
	return fmt.Sprintf("%s:%d:%d: %s (%s)", file, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s (use -C)", dir)
		}
		dir = parent
	}
}

// filterPackages applies module-relative patterns: "./..." (or no
// patterns) keeps everything, "x/..." keeps the subtree, anything else
// must match exactly.
func filterPackages(pkgs []*lint.Package, cfg *lint.Config, patterns []string) []*lint.Package {
	if len(patterns) == 0 {
		return pkgs
	}
	keep := func(rel string) bool {
		for _, pat := range patterns {
			pat = strings.TrimPrefix(pat, "./")
			if pat == "..." || pat == "" {
				return true
			}
			if sub, ok := strings.CutSuffix(pat, "/..."); ok {
				if rel == sub || strings.HasPrefix(rel, sub+"/") {
					return true
				}
				continue
			}
			if rel == pat {
				return true
			}
		}
		return false
	}
	var out []*lint.Package
	for _, p := range pkgs {
		if keep(cfg.Rel(p.Path)) {
			out = append(out, p)
		}
	}
	return out
}
