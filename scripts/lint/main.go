// Command lint is the repo's own vet-style static analyzer (stdlib go/ast +
// go/types only, no external dependencies). It enforces three rules, all
// born from real bugs in this codebase:
//
//  1. Range-over-map order dependence: a `for ... range m` over a map whose
//     body appends to a slice or emits output (calls named append, Write*,
//     Print*, Fprint*, Emit*/emit*, print*) produces results that depend on
//     Go's randomized map iteration order. Code generation, assembly,
//     linking, and experiment export must be byte-deterministic, so such
//     loops must iterate a sorted copy instead. A loop that is deliberately
//     order-independent downstream is suppressed with the marker comment
//     //lint:sorted on the `for` line or the line directly above it.
//
//  2. Hot-path allocations: a file carrying a //lint:hotpath comment (bare,
//     or followed by the reason the file is hot) declares that its steady
//     state must not allocate (the simulator's cycle loop and the
//     functional pass's per-access bookkeeping; TestSteadyStateZeroAllocs
//     and profile's TestRunSteadyStateZeroAllocs enforce the dynamic side).
//     In such files every `append` call, map composite literal, and
//     `make(map...)` call is flagged — the hot structures are fixed-size
//     rings sized once at setup, so growth idioms are regressions.
//     Deliberate setup-time or error-path allocations are suppressed with
//     //lint:alloc-ok on the same line or the line above.
//
//  3. Magic schema/verdict strings: report schemas ("fac/static/v1",
//     "fac/report/v1", ...) and verdict names ("proven_predictable",
//     "proven_failing") are wire-format contracts checked byte-for-byte by
//     golden files and downstream consumers. A raw string literal spelling
//     one of them anywhere outside a const declaration is a typo waiting
//     to fork the format, so it must reference the exported constant
//     (staticfac.ReportSchema, staticfac.VerdictNamePredictable, ...)
//     instead. Struct tags are exempt (encoding/json needs the literal);
//     a deliberate duplicate — say, a doc example — is suppressed with
//     //lint:schemaok on the line or the line above.
//
// Usage: go run ./scripts/lint [package-dir ...]
// Without arguments it lints every directory of the module that holds
// non-test Go files, so a new package is covered without being listed.
// It skips what the go command skips (testdata, and directories whose
// names begin with "." or "_") and nested modules such as perfbench.
package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	root, err := repoRoot()
	if err != nil {
		fatal(err)
	}
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		fatal(err)
	}
	targets := os.Args[1:]
	if len(targets) == 0 {
		if targets, err = packageDirs(root); err != nil {
			fatal(err)
		}
	}
	l := newLinter(root, mod)
	var findings []string
	for _, dir := range targets {
		fs, err := l.lintDir(dir)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", dir, err))
		}
		findings = append(findings, fs...)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "lint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// repoRoot walks up from the working directory to the go.mod.
func repoRoot() (string, error) {
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
			return "", fmt.Errorf("no go.mod above working directory")
		}
		dir = parent
	}
}

// packageDirs lists, relative to root, every directory of the module that
// holds non-test Go files. Like the go command it skips testdata and
// directories whose names begin with "." or "_", and it leaves out nested
// modules (any directory below root with a go.mod of its own).
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != root {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if n := e.Name(); strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
				rel, err := filepath.Rel(root, path)
				dirs = append(dirs, rel)
				return err
			}
		}
		return nil
	})
	return dirs, err
}

// modulePath reads the module line of a go.mod.
func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// linter type-checks packages from source. Module-internal imports resolve
// against the repository tree; everything else (the standard library) goes
// through the stock source importer.
type linter struct {
	root  string
	mod   string
	fset  *token.FileSet
	std   types.Importer
	cache map[string]*types.Package
}

func newLinter(root, mod string) *linter {
	fset := token.NewFileSet()
	return &linter{
		root:  root,
		mod:   mod,
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		cache: map[string]*types.Package{},
	}
}

// Import implements types.Importer over both namespaces.
func (l *linter) Import(path string) (*types.Package, error) {
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	if rel, ok := strings.CutPrefix(path, l.mod+"/"); ok {
		pkg, _, _, err := l.check(filepath.Join(l.root, rel), path)
		if err != nil {
			return nil, err
		}
		l.cache[path] = pkg
		return pkg, nil
	}
	return l.std.Import(path)
}

// check parses and type-checks the non-test files of one package directory.
func (l *linter) check(dir, importPath string) (*types.Package, []*ast.File, *types.Info, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil, nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	cfg := types.Config{Importer: l}
	pkg, err := cfg.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, nil, nil, err
	}
	return pkg, files, info, nil
}

// lintDir type-checks one package directory (relative to the repo root)
// and returns its findings sorted by position.
func (l *linter) lintDir(dir string) ([]string, error) {
	abs := dir
	if !filepath.IsAbs(abs) {
		abs = filepath.Join(l.root, dir)
	}
	importPath := l.mod + "/" + filepath.ToSlash(dir)
	_, files, info, err := l.check(abs, importPath)
	if err != nil {
		return nil, err
	}
	var findings []string
	for _, f := range files {
		if hasHotpathMarker(f) {
			findings = append(findings, l.lintHotpath(f, info)...)
		}
		findings = append(findings, l.lintSchemaStrings(f)...)
		sorted := markerLines(l.fset, f)
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := info.Types[rs.X]
			if !ok {
				return true
			}
			if _, ok := tv.Type.Underlying().(*types.Map); !ok {
				return true
			}
			pos := l.fset.Position(rs.For)
			if sorted[pos.Line] || sorted[pos.Line-1] {
				return true
			}
			if reason := orderDependent(rs.Body, info); reason != "" {
				rel, err := filepath.Rel(l.root, pos.Filename)
				if err != nil {
					rel = pos.Filename
				}
				findings = append(findings, fmt.Sprintf(
					"%s:%d: range over map %s %s in map order (iteration order is randomized; iterate a sorted copy or mark //lint:sorted)",
					filepath.ToSlash(rel), pos.Line, exprString(rs.X), reason))
			}
			return true
		})
	}
	sort.Strings(findings)
	return findings, nil
}

// hasHotpathMarker reports whether the file opts into the hot-path
// allocation rule with a //lint:hotpath comment, bare or followed by the
// reason the file is hot.
func hasHotpathMarker(f *ast.File) bool {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if text == "lint:hotpath" || strings.HasPrefix(text, "lint:hotpath ") {
				return true
			}
		}
	}
	return false
}

// commentLines returns the file lines carrying the given //lint:... marker.
func commentLines(fset *token.FileSet, f *ast.File, marker string) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == marker {
				lines[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}

// allocOKLines returns the file lines carrying a //lint:alloc-ok marker,
// which suppresses the hot-path allocation rule on that line or the next.
func allocOKLines(fset *token.FileSet, f *ast.File) map[int]bool {
	return commentLines(fset, f, "lint:alloc-ok")
}

// lintHotpath flags allocation-prone patterns in a //lint:hotpath file:
// append calls (unbounded growth — hot structures must be fixed rings),
// map composite literals, and make(map...) calls.
func (l *linter) lintHotpath(f *ast.File, info *types.Info) []string {
	okLines := allocOKLines(l.fset, f)
	var findings []string
	report := func(pos token.Pos, what string) {
		p := l.fset.Position(pos)
		if okLines[p.Line] || okLines[p.Line-1] {
			return
		}
		rel, err := filepath.Rel(l.root, p.Filename)
		if err != nil {
			rel = p.Filename
		}
		findings = append(findings, fmt.Sprintf(
			"%s:%d: %s in //lint:hotpath file (use a preallocated ring/buffer, or mark //lint:alloc-ok for setup code)",
			filepath.ToSlash(rel), p.Line, what))
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok {
					switch b.Name() {
					case "append":
						report(n.Pos(), "append")
					case "make":
						if len(n.Args) > 0 {
							if tv, ok := info.Types[n.Args[0]]; ok {
								if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
									report(n.Pos(), "make(map)")
								}
							}
						}
					}
				}
			}
		case *ast.CompositeLit:
			if tv, ok := info.Types[n]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					report(n.Pos(), "map literal")
				}
			}
		}
		return true
	})
	return findings
}

// schemaPattern matches report-schema identifiers like "fac/static/v1".
var schemaPattern = regexp.MustCompile(`^fac/[a-z-]+/v[0-9]+$`)

// verdictNames are the wire-format verdict strings; "unknown" is excluded
// because it doubles as the generic fallback of many String methods.
var verdictNames = map[string]bool{
	"proven_predictable": true, //lint:schemaok
	"proven_failing":     true, //lint:schemaok
}

// lintSchemaStrings flags raw string literals that spell a schema
// identifier or a verdict name outside a const declaration. Struct tags
// are exempt, and //lint:schemaok on the literal's line (or the line
// above) suppresses the finding.
func (l *linter) lintSchemaStrings(f *ast.File) []string {
	okLines := commentLines(l.fset, f, "lint:schemaok")

	// Collect source ranges the rule does not apply to: const
	// declarations (the canonical definitions live there) and struct
	// field tags (encoding/json needs the literal).
	type span struct{ lo, hi token.Pos }
	var exempt []span
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GenDecl:
			if n.Tok == token.CONST {
				exempt = append(exempt, span{n.Pos(), n.End()})
				return false
			}
		case *ast.Field:
			if n.Tag != nil {
				exempt = append(exempt, span{n.Tag.Pos(), n.Tag.End()})
			}
		}
		return true
	})
	exempted := func(p token.Pos) bool {
		for _, s := range exempt {
			if p >= s.lo && p < s.hi {
				return true
			}
		}
		return false
	}

	var findings []string
	ast.Inspect(f, func(n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING || exempted(lit.Pos()) {
			return true
		}
		val, err := strconv.Unquote(lit.Value)
		if err != nil {
			return true
		}
		if !schemaPattern.MatchString(val) && !verdictNames[val] {
			return true
		}
		p := l.fset.Position(lit.Pos())
		if okLines[p.Line] || okLines[p.Line-1] {
			return true
		}
		rel, err := filepath.Rel(l.root, p.Filename)
		if err != nil {
			rel = p.Filename
		}
		findings = append(findings, fmt.Sprintf(
			"%s:%d: raw schema/verdict string %q (reference the exported constant, or mark //lint:schemaok)",
			filepath.ToSlash(rel), p.Line, val))
		return true
	})
	return findings
}

// markerLines returns the file lines carrying a //lint:sorted marker. The
// marker suppresses a finding on its own line (trailing comment) or the
// line below it (marker on its own line above the loop).
func markerLines(fset *token.FileSet, f *ast.File) map[int]bool {
	return commentLines(fset, f, "lint:sorted")
}

// emitPrefixes are call-name prefixes that write output or build ordered
// collections: appending or emitting inside a map range leaks the random
// iteration order into the result.
var emitPrefixes = []string{"Write", "Print", "Fprint", "Emit", "emit", "print"}

// orderDependent reports why a map-range body is iteration-order dependent,
// or "" if no order-sensitive operation was found.
func orderDependent(body *ast.BlockStmt, info *types.Info) string {
	reason := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var name string
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if b, ok := info.Uses[fun].(*types.Builtin); ok && b.Name() == "append" {
				reason = "appends to a slice"
				return false
			}
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		default:
			return true
		}
		for _, p := range emitPrefixes {
			if strings.HasPrefix(name, p) {
				reason = "calls " + name
				return false
			}
		}
		return true
	})
	return reason
}

// exprString renders the ranged expression compactly for the finding text.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	default:
		return "expression"
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lint:", err)
	os.Exit(1)
}
