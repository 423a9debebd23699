// Documentation lint, run by `make docs-lint` and the ordinary test
// suite: every internal package must carry a package doc comment, and
// every local markdown link in the top-level docs must resolve. The same
// file pins one source-level design rule, TestNoLegacySurface.
package mpid_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestPackageDocs requires a `// Package <name> ...` doc comment in every
// package under internal/ (and on the root package), so `go doc` has
// something to say about each subsystem.
func TestPackageDocs(t *testing.T) {
	dirs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	dirs = append(dirs, ".")
	for _, dir := range dirs {
		info, err := os.Stat(dir)
		if err != nil || !info.IsDir() {
			continue
		}
		pkg := filepath.Base(dir)
		if dir == "." {
			pkg = "mpid"
		}
		if !packageHasDoc(t, dir, pkg) {
			t.Errorf("package %s (%s) has no '// Package %s ...' doc comment", pkg, dir, pkg)
		}
	}
}

// TestCommandDocs requires a `// Command <name> ...` doc comment on every
// main package under cmd/.
func TestCommandDocs(t *testing.T) {
	dirs, err := filepath.Glob("cmd/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		name := filepath.Base(dir)
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			continue
		}
		found := false
		for _, f := range files {
			if fileHasPrefixComment(t, f, "// Command "+name+" ") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("command %s has no '// Command %s ...' doc comment", dir, name)
		}
	}
}

func packageHasDoc(t *testing.T, dir, pkg string) bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		if fileHasPrefixComment(t, f, "// Package "+pkg+" ") {
			return true
		}
	}
	return false
}

// fileHasPrefixComment reports whether f contains a comment line starting
// with prefix immediately adjacent to its package clause (i.e. a real doc
// comment, not a stray mention).
func fileHasPrefixComment(t *testing.T, f, prefix string) bool {
	t.Helper()
	data, err := os.ReadFile(f)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	for i, line := range lines {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		// Walk forward through the comment block; it must end at a
		// package/func clause boundary for godoc to pick it up.
		for j := i + 1; j < len(lines); j++ {
			switch {
			case strings.HasPrefix(lines[j], "//"):
				continue
			case strings.HasPrefix(lines[j], "package "):
				return true
			}
			break
		}
	}
	return false
}

// TestDocSections pins the load-bearing sections and names the
// top-level docs promise each other: DESIGN.md section numbers that
// other docs cite, the flags and packages ARCHITECTURE.md documents,
// the retired baselines EXPERIMENTS.md freezes, and its links to the
// every-run records under runs/. A
// rename or deletion that breaks a cross-reference fails here instead
// of silently leaving a dangling mention.
func TestDocSections(t *testing.T) {
	required := map[string][]string{
		"DESIGN.md": {
			"## 10. Pipelined shuffle/merge engine",
			"## 11. Zero-allocation MPI-D fast path",
			"## 12. The job service (mpid-serve)",
			"## 13. Shuffle-byte reduction",
			"## 14. Transport raw speed",
			"mapred.combiner.fallback", "mergeFactor",
			"NewRingWorld", "CopyPayloads", "PutFile",
			"TestPutBackPingPongAllocFree",
			"-engine mpid|hadoop", "engine.New", "mapred.RunContext",
			"mpi.World.Abort", "ErrExpired",
			"**Output: built once, where it is reduced.**",
		},
		"EXPERIMENTS.md": {
			"## Extension — Workload suite",
			"## Extension — Shuffle-byte reduction",
			"## Extension — Transport raw speed",
			"### Allocations per round trip, as a test (PR 20)",
			"## Retired baselines",
			"### The second benchmark, retired by PR 20",
			"### What only tests reached, retired by PR 21",
			"#### Figure 6 (coded)",
			"### The service on the MPI-D path (PR 17)",
			"### PR 17 against its parent, every run",
			"### PR 20 against its parent, every run",
			"### PR 21 against its parent, every run",
			"### Reducers own their output (PR 22)",
			"### PR 22 against its parent, every run",
			"### The map side of the Figure 6 job (PR 26)",
			"[runs/PR-26.md](runs/PR-26.md)",
			"### The Send half of the Figure 6 job (PR 27)",
			"[runs/PR-27.md](runs/PR-27.md)",
			"### The baseline pays what Hadoop 0.20 paid (PR 28)",
			"[runs/PR-28.md](runs/PR-28.md)",
			"**`BENCH_serve.json`**", "**`BENCH_workloads.json`**",
			"**`BENCH_shufflebytes.json`**", "**`BENCH_transport.json`**",
			"coded-r1", "mpid-nodearena", "hadoop-nodecombine",
			"ring_vs_chan_small_p50", "max_allocs_per_op",
		},
		"ARCHITECTURE.md": {
			"shuffle-byte reduction (ext.)",
			"transport raw speed (ext.)",
			"NewRingWorld", "Store.PutFile",
			"**`internal/engine`**", "Engine.Run",
			"## Who reaches what",
			"### Reached by tests alone",
		},
		"README.md": {
			"bash bench/run.sh", "BENCHMARK.json",
			"EXPERIMENTS.md#retired-baselines",
			"`-engine mpid\\|hadoop`", "-engine hadoop",
		},
	}
	for doc, wants := range required {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Errorf("%s: %v", doc, err)
			continue
		}
		text := string(data)
		for _, want := range wants {
			if !strings.Contains(text, want) {
				t.Errorf("%s: missing required section or name %q", doc, want)
			}
		}
	}
}

// TestNoLegacySurface pins ROADMAP aim 2's rule that a superseded code
// path is deleted, not kept selectable: no exported identifier, struct
// field or registered flag name in the production sources under internal/
// and cmd/ may contain "legacy" (any case). A perf change that leaves its
// predecessor behind a switch fails here.
func TestNoLegacySurface(t *testing.T) {
	isLegacy := func(name string) bool {
		return strings.Contains(strings.ToLower(name), "legacy")
	}
	fset := token.NewFileSet()
	walk := func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		report := func(id *ast.Ident, kind string) {
			t.Errorf("%s: %s %q keeps a legacy path selectable", fset.Position(id.Pos()), kind, id.Name)
		}
		exported := func(id *ast.Ident, kind string) {
			if id.IsExported() && isLegacy(id.Name) {
				report(id, kind)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				exported(n.Name, "exported func")
			case *ast.TypeSpec:
				exported(n.Name, "exported type")
			case *ast.ValueSpec:
				for _, id := range n.Names {
					exported(id, "exported value")
				}
			case *ast.StructType:
				for _, f := range n.Fields.List {
					for _, id := range f.Names {
						if isLegacy(id.Name) {
							report(id, "struct field")
						}
					}
				}
			case *ast.CallExpr:
				// flag.String("name", ...) and flag.StringVar(&v, "name", ...).
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					break
				}
				if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
					break
				}
				arg := 0
				if strings.HasSuffix(sel.Sel.Name, "Var") {
					arg = 1
				}
				if arg < len(n.Args) {
					if lit, ok := n.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING && isLegacy(lit.Value) {
						t.Errorf("%s: flag %s keeps a legacy path selectable", fset.Position(lit.Pos()), lit.Value)
					}
				}
			}
			return true
		})
		return nil
	}
	for _, root := range []string{"internal", "cmd"} {
		if err := filepath.WalkDir(root, walk); err != nil {
			t.Fatal(err)
		}
	}
}

// mdLink matches inline markdown links [text](target); images and
// reference-style links are out of scope for these docs.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestMarkdownLinks checks that every local (non-URL) link target in the
// top-level docs points at an existing file or directory.
func TestMarkdownLinks(t *testing.T) {
	docs := []string{
		"README.md", "DESIGN.md", "EXPERIMENTS.md", "ARCHITECTURE.md",
		"ROADMAP.md", "CHANGES.md",
	}
	for _, doc := range docs {
		f, err := os.Open(doc)
		if err != nil {
			t.Errorf("%s: %v", doc, err)
			continue
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		lineNo := 0
		for sc.Scan() {
			lineNo++
			for _, m := range mdLink.FindAllStringSubmatch(sc.Text(), -1) {
				target := m[1]
				if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
					continue // external; not checked offline
				}
				if i := strings.IndexByte(target, '#'); i >= 0 {
					target = target[:i]
				}
				if target == "" {
					continue // intra-document anchor
				}
				if _, err := os.Stat(filepath.FromSlash(target)); err != nil {
					t.Errorf("%s:%d: broken local link %q", doc, lineNo, fmt.Sprint(m[1]))
				}
			}
		}
		if err := sc.Err(); err != nil {
			t.Errorf("%s: %v", doc, err)
		}
		f.Close()
	}
}
