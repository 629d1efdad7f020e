// Command docgate is the documentation gate CI runs on every push. It
// enforces two properties the docs satellite work established:
//
//  1. Godoc completeness — every exported identifier (package clause,
//     top-level func/type/const/var, and methods on exported types) in
//     every package under the root carries a doc comment.
//  2. Snippets compile — every ```go fence in the gated markdown files
//     builds against the current public API. Whole-file snippets
//     (starting with a package clause) compile as-is; fragments are
//     wrapped in a function with auto-detected imports. Fences tagged
//     anything other than exactly "go" (sh, text, goas) are ignored.
//
// Usage:
//
//	docgate [-root DIR] [-pkgs csv] [-docs csv]
//
// Exit status 1 lists every violation; fixing the doc or the snippet
// (or bumping the API and the docs together) is the only way through.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// gatedDocs are the markdown files whose go fences must build.
const gatedDocs = "README.md,docs/ARCHITECTURE.md,docs/API.md"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the gate and returns the process exit code.
func run(args []string, w, errW io.Writer) int {
	fs := flag.NewFlagSet("docgate", flag.ContinueOnError)
	fs.SetOutput(errW)
	root := fs.String("root", ".", "repository root")
	pkgs := fs.String("pkgs", "", "comma-separated package dirs to check for godoc completeness (default: every package under -root)")
	docs := fs.String("docs", gatedDocs, "comma-separated markdown files whose go fences must build")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var problems []string
	dirs := strings.Split(*pkgs, ",")
	pkgsSet := false
	fs.Visit(func(f *flag.Flag) { pkgsSet = pkgsSet || f.Name == "pkgs" })
	if !pkgsSet {
		var err error
		if dirs, err = packageDirs(*root); err != nil {
			fmt.Fprintf(errW, "docgate: %v\n", err)
			return 1
		}
	}
	for _, dir := range dirs {
		dir = strings.TrimSpace(dir)
		if dir == "" {
			continue
		}
		missing, err := undocumented(filepath.Join(*root, dir))
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", dir, err))
			continue
		}
		problems = append(problems, missing...)
	}
	for _, doc := range strings.Split(*docs, ",") {
		doc = strings.TrimSpace(doc)
		if doc == "" {
			continue
		}
		failures, err := checkSnippets(*root, doc)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", doc, err))
			continue
		}
		problems = append(problems, failures...)
	}

	if len(problems) > 0 {
		fmt.Fprintf(errW, "docgate: %d problem(s)\n", len(problems))
		for _, p := range problems {
			fmt.Fprintln(errW, "  "+p)
		}
		return 1
	}
	fmt.Fprintln(w, "docgate: ok")
	return 0
}

// --- godoc completeness ---

// packageDirs returns every directory under root, relative to it, that
// holds a non-test .go file. Like the go tool, it skips testdata and
// directories whose names start with "." or "_".
func packageDirs(root string) ([]string, error) {
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			rel, err := filepath.Rel(root, filepath.Dir(path))
			if err != nil {
				return err
			}
			seen[rel] = true
		}
		return nil
	})
	dirs := make([]string, 0, len(seen))
	for dir := range seen {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	return dirs, err
}

// undocumented reports every exported identifier in dir (non-test
// files) that lacks a doc comment, as "dir/file:line: name" strings.
func undocumented(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var out []string
	report := func(pos token.Pos, what, name string) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: %s %s has no doc comment", p.Filename, p.Line, what, name))
	}
	for _, pkg := range pkgs {
		if strings.HasSuffix(pkg.Name, "_test") {
			continue
		}
		// Map iteration order is random; pin the reported position to
		// the lexicographically first file so the gate's output is
		// stable run to run.
		packageDocumented := false
		var packagePos token.Pos
		var firstName string
		for name, file := range pkg.Files {
			if file.Doc != nil {
				packageDocumented = true
			}
			if firstName == "" || name < firstName {
				firstName = name
				packagePos = file.Package
			}
			for _, decl := range file.Decls {
				checkDecl(decl, report)
			}
		}
		if !packageDocumented {
			report(packagePos, "package", pkg.Name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// checkDecl reports undocumented exported declarations. A doc comment
// on a const/var/type block covers every spec in the block; a spec's
// own doc or trailing line comment also counts.
func checkDecl(decl ast.Decl, report func(token.Pos, string, string)) {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || d.Doc != nil {
			return
		}
		if d.Recv != nil {
			if !receiverExported(d) {
				return
			}
			report(d.Pos(), "method", methodName(d))
			return
		}
		report(d.Pos(), "func", d.Name.Name)
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
					report(s.Pos(), "type", s.Name.Name)
				}
			case *ast.ValueSpec:
				for _, name := range s.Names {
					if name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
						report(name.Pos(), "value", name.Name)
					}
				}
			}
		}
	}
}

// receiverExported reports whether a method's receiver names an
// exported type.
func receiverExported(d *ast.FuncDecl) bool {
	if len(d.Recv.List) == 0 {
		return false
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}

// methodName renders "Recv.Method" for reports.
func methodName(d *ast.FuncDecl) string {
	t := d.Recv.List[0].Type
	for {
		if st, ok := t.(*ast.StarExpr); ok {
			t = st.X
			continue
		}
		break
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + d.Name.Name
	}
	return d.Name.Name
}

// --- snippet compilation ---

// fenceRe matches the opening of a fenced code block and captures the
// info string.
var fenceRe = regexp.MustCompile("^```(.*)$")

// snippet is one extracted code fence.
type snippet struct {
	file string
	line int // 1-based line of the opening fence
	code string
}

// extractGoFences pulls every fence tagged exactly "go" from a
// markdown file.
func extractGoFences(path string) ([]snippet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []snippet
	lines := strings.Split(string(raw), "\n")
	for i := 0; i < len(lines); i++ {
		m := fenceRe.FindStringSubmatch(lines[i])
		if m == nil || strings.TrimSpace(m[1]) != "go" {
			continue
		}
		start := i + 1
		var body []string
		for i++; i < len(lines) && !strings.HasPrefix(lines[i], "```"); i++ {
			body = append(body, lines[i])
		}
		out = append(out, snippet{file: path, line: start, code: strings.Join(body, "\n")})
	}
	return out, nil
}

// fragmentImports maps the package qualifiers doc fragments may use to
// their import paths. A fragment using anything else must be written
// as a whole file.
var fragmentImports = map[string]string{
	"fetch":    "fetch",
	"fmt":      "fmt",
	"os":       "os",
	"log":      "log",
	"sort":     "sort",
	"time":     "time",
	"context":  "context",
	"bytes":    "bytes",
	"strings":  "strings",
	"errors":   "errors",
	"io":       "io",
	"http":     "net/http",
	"httptest": "net/http/httptest",
	"json":     "encoding/json",
	"hex":      "encoding/hex",
	"runtime":  "runtime",
	"filepath": "path/filepath",
}

// qualRe finds candidate package qualifiers in a fragment.
var qualRe = regexp.MustCompile(`(?:^|[^.\w])([a-z][a-z0-9]*)\.`)

// wrapFragment turns a statement-level fragment into a compilable
// file: detected imports plus a containing function.
func wrapFragment(sn snippet, n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "package snippets\n\n")
	var imports []string
	seen := map[string]bool{}
	for _, m := range qualRe.FindAllStringSubmatch(sn.code, -1) {
		if path, ok := fragmentImports[m[1]]; ok && !seen[m[1]] {
			seen[m[1]] = true
			imports = append(imports, path)
		}
	}
	sort.Strings(imports)
	if len(imports) > 0 {
		b.WriteString("import (\n")
		for _, im := range imports {
			fmt.Fprintf(&b, "\t%q\n", im)
		}
		b.WriteString(")\n\n")
	}
	fmt.Fprintf(&b, "func snippet%d() error {\n", n)
	for _, line := range strings.Split(sn.code, "\n") {
		b.WriteString("\t" + line + "\n")
	}
	b.WriteString("\treturn nil\n}\n")
	return b.String()
}

// checkSnippets extracts a file's go fences and builds them in a
// scratch module that replaces the fetch module with root, so
// snippets compile against the exact working tree.
func checkSnippets(root, docFile string) ([]string, error) {
	sns, err := extractGoFences(filepath.Join(root, docFile))
	if err != nil {
		return nil, err
	}
	if len(sns) == 0 {
		return nil, nil
	}
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp("", "docgate-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	gomod := fmt.Sprintf("module docsnippets\n\ngo 1.21\n\nrequire fetch v0.0.0\n\nreplace fetch => %s\n", absRoot)
	if err := os.WriteFile(filepath.Join(tmp, "go.mod"), []byte(gomod), 0o644); err != nil {
		return nil, err
	}

	var failures []string
	for i, sn := range sns {
		dir := filepath.Join(tmp, fmt.Sprintf("snippet%02d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		code := sn.code
		if !strings.HasPrefix(strings.TrimSpace(code), "package ") {
			code = wrapFragment(sn, i)
		}
		if err := os.WriteFile(filepath.Join(dir, "snippet.go"), []byte(code), 0o644); err != nil {
			return nil, err
		}
		// Build from inside the snippet dir: a main-package snippet's
		// output binary then lands in the dir instead of colliding with
		// the dir's own name at the module root.
		cmd := exec.Command("go", "build", ".")
		cmd.Dir = dir
		cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
		if out, err := cmd.CombinedOutput(); err != nil {
			failures = append(failures, fmt.Sprintf("%s:%d: snippet does not build:\n%s",
				sn.file, sn.line, indent(string(out))))
		}
	}
	return failures, nil
}

// indent prefixes every line for readable nested build output.
func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return "      " + strings.Join(lines, "\n      ")
}
