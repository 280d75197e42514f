package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module from module-relative paths.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, src := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestExitCodes pins the contract scripts/check.sh relies on: 0 for a
// clean module, 1 when an analyzer reports, 2 when a package does not
// type-check.
func TestExitCodes(t *testing.T) {
	const gomod = "module fixmod\n\ngo 1.22\n"
	cases := []struct {
		name   string
		src    string
		code   int
		stdout string // substring of the findings output
		stderr string // substring of the diagnostics on stderr
	}{
		{"clean", "package clean\n\nfunc Two() int { return 2 }\n", 0, "", ""},
		{"finding", "package clean\n\nimport \"time\"\n\nfunc Now() time.Time { return time.Now() }\n", 1,
			"internal/clean/clean.go:5:31: direct time.Now call", "1 finding(s)"},
		{"type error", "package clean\n\nfunc Two() int { return \"two\" }\n", 2, "", "type error"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := writeModule(t, map[string]string{"go.mod": gomod, "internal/clean/clean.go": tc.src})
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-C", root, "./..."}, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", code, tc.code, stdout.String(), stderr.String())
			}
			if tc.stdout == "" && stdout.Len() != 0 {
				t.Errorf("unexpected output: %s", stdout.String())
			}
			if !strings.Contains(stdout.String(), tc.stdout) {
				t.Errorf("stdout %q does not contain %q", stdout.String(), tc.stdout)
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr %q does not contain %q", stderr.String(), tc.stderr)
			}
		})
	}
}
