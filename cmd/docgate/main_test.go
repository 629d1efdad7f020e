package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree materializes a map of relative path -> content under dir.
func writeTree(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for rel, content := range files {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestUndocumentedFindsBareExports(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, map[string]string{
		"pkg/pkg.go": `// Package pkg is documented.
package pkg

// Documented is fine.
func Documented() {}

func Bare() {}

type BareType struct{}

// DocumentedType is fine.
type DocumentedType struct{}

func (DocumentedType) BareMethod() {}

func (DocumentedType) documentedButUnexported() {}

var BareVar = 1

// Grouped docs cover the whole block.
const (
	CoveredA = 1
	CoveredB = 2
)
`,
		"pkg/pkg_test.go": "package pkg\n\nfunc TestOnly() {}\n",
	})
	missing, err := undocumented(filepath.Join(dir, "pkg"))
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(missing, "\n")
	for _, want := range []string{"func Bare", "type BareType", "method DocumentedType.BareMethod", "value BareVar"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing report for %q in:\n%s", want, joined)
		}
	}
	for _, wrong := range []string{"Documented ", "DocumentedType ", "CoveredA", "CoveredB", "TestOnly", "documentedButUnexported"} {
		if strings.Contains(joined, wrong) {
			t.Errorf("false positive %q in:\n%s", wrong, joined)
		}
	}
	if len(missing) != 4 {
		t.Errorf("want exactly 4 findings, got %d:\n%s", len(missing), joined)
	}
}

func TestUndocumentedRequiresPackageComment(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, map[string]string{
		"pkg/pkg.go": "package pkg\n",
	})
	missing, err := undocumented(filepath.Join(dir, "pkg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 1 || !strings.Contains(missing[0], "package pkg") {
		t.Fatalf("package-comment gap not reported: %v", missing)
	}
}

// gateRoot builds a minimal repo root the snippet checker can replace
// the fetch module with.
func gateRoot(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module fetch\n\ngo 1.21\n"
	writeTree(t, dir, files)
	return dir
}

func TestRunSnippetGate(t *testing.T) {
	root := gateRoot(t, map[string]string{
		"GOOD.md": "Text.\n```go\nfmt.Println(\"hello\")\n```\n" +
			"A whole file:\n```go\npackage main\n\nfunc main() {}\n```\n" +
			"Not checked:\n```sh\nnot go at all\n```\n",
		"BAD.md": "```go\nthis does not compile\n```\n",
	})

	var out, errOut strings.Builder
	if code := run([]string{"-root", root, "-pkgs", "", "-docs", "GOOD.md"}, &out, &errOut); code != 0 {
		t.Fatalf("good snippets rejected (%d):\n%s", code, errOut.String())
	}
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-root", root, "-pkgs", "", "-docs", "GOOD.md,BAD.md"}, &out, &errOut); code != 1 {
		t.Fatalf("bad snippet accepted (%d):\n%s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "BAD.md:1") {
		t.Errorf("failure not attributed to BAD.md line 1:\n%s", errOut.String())
	}
}

func TestRunDocGateExitCodes(t *testing.T) {
	root := gateRoot(t, map[string]string{
		"clean/clean.go": "// Package clean is fully documented.\npackage clean\n\n// Exported has docs.\nfunc Exported() {}\n",
		"dirty/dirty.go": "// Package dirty has one gap.\npackage dirty\n\nfunc Bare() {}\n",
	})
	var out, errOut strings.Builder
	if code := run([]string{"-root", root, "-pkgs", "clean", "-docs", ""}, &out, &errOut); code != 0 {
		t.Fatalf("clean package rejected (%d):\n%s", code, errOut.String())
	}
	errOut.Reset()
	if code := run([]string{"-root", root, "-pkgs", "clean,dirty", "-docs", ""}, &out, &errOut); code != 1 {
		t.Fatalf("dirty package accepted (%d)", code)
	}
	if !strings.Contains(errOut.String(), "func Bare") {
		t.Errorf("gap not named:\n%s", errOut.String())
	}
	if code := run([]string{"-pkgs", "no/such/dir", "-docs", ""}, &out, &errOut); code != 1 {
		t.Fatalf("missing dir accepted (%d)", code)
	}
	if code := run([]string{"-bogus-flag"}, &out, &errOut); code != 2 {
		t.Fatal("bad flag accepted")
	}
}

// TestPackageDirsWalksTree pins the default package set: every
// directory with a non-test .go file, nested ones and the root
// included, minus testdata and "." / "_" directories.
func TestPackageDirsWalksTree(t *testing.T) {
	root := gateRoot(t, map[string]string{
		"root.go":               "package root\n",
		"a/a.go":                "package a\n",
		"a/b/b.go":              "package b\n",
		"a/b/c/c_test.go":       "package c\n",
		"testdata/t.go":         "package t\n",
		".hidden/h.go":          "package h\n",
		"_skip/s.go":            "package s\n",
		"nested/mod/go.mod":     "module mod\n",
		"nested/mod/m.go":       "package m\n",
		"docs/only-markdown.md": "text\n",
	})
	got, err := packageDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{".", "a", "a/b", "nested/mod"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("packageDirs = %q, want %q", got, want)
	}
}

// TestRepoGateIsGreen runs the real gate over the working tree — the
// same invocation CI uses. It fails whenever someone adds a bare
// exported identifier to a gated package or a broken snippet to the
// docs.
func TestRepoGateIsGreen(t *testing.T) {
	if testing.Short() {
		t.Skip("builds doc snippets; skipped in -short")
	}
	var out, errOut strings.Builder
	if code := run([]string{"-root", "../.."}, &out, &errOut); code != 0 {
		t.Fatalf("docgate on the repo failed (%d):\n%s", code, errOut.String())
	}
}
