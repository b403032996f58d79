// Command repolint is this repository's custom static analyzer for its
// own Go source, built on the standard library only (go/parser,
// go/types). It enforces repo invariants that gofmt and go vet do not
// cover:
//
//   - maprange: in the decision-procedure packages (treeauto, wordauto,
//     core, ucq) iterating a map with range is flagged, because map
//     order is random and those packages construct automata, witnesses,
//     and unions whose determinism the tests and golden files rely on.
//     Iterate a sorted key slice instead, or annotate the line (or the
//     line above) with "//repolint:allow maprange — <why order cannot
//     leak into output>".
//
//   - panic: calling panic in non-test library code (anything under
//     internal/) is flagged, because the north-star is serving untrusted
//     programs: user input must surface as errors with positions, not
//     crashes. True invariant violations stay panics, annotated with
//     "//repolint:allow panic — <why this is unreachable from input>".
//
//   - goroutine: a naked go statement anywhere outside internal/par is
//     flagged. All concurrency in this repo flows through the par
//     executor so worker counts, stop flags, and determinism arguments
//     live in one audited place. Annotate deliberate exceptions with
//     "//repolint:allow goroutine — <why this cannot go through par>".
//
//   - mutexcopy: copying a value whose type (recursively) contains a
//     sync.Mutex or sync.RWMutex — in an assignment, var initializer,
//     call argument, or return — is flagged; a copied lock guards
//     nothing. Pass a pointer instead.
//
//   - loopcapture: a go statement whose function literal captures a
//     loop variable is flagged when the module's go directive predates
//     1.22 (per-iteration loop variables); before then every iteration
//     shares one variable and the goroutines race on it.
//
//   - guardcharge: budget accounting inside a worker closure passed to
//     internal/par — creating a meter (guard.Budget.Meter), charging
//     one (Meter.Charge, Meter.CheckWall), or handing a *guard.Meter to
//     a callee — is flagged. Charges racing across workers make budget
//     trip points depend on the worker count, breaking the engine's
//     bit-determinism contract; charge at a single-threaded point, or
//     annotate "//repolint:allow guardcharge — <why trips stay
//     deterministic>" (e.g. a dedicated meter per task index).
//
//   - testonly: a non-test file importing a test-only package (the
//     reference evaluator internal/evaltest) is flagged. Oracles the
//     differential tests compare the engine against must not become a
//     second production code path.
//
// Usage: go run ./cmd/repolint ./...
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
	"sort"
	"strconv"
	"strings"
)

// orderedPkgs are the decision-procedure packages where map iteration
// order can leak into constructed automata and rendered output.
var orderedPkgs = map[string]bool{
	"treeauto": true,
	"wordauto": true,
	"core":     true,
	"ucq":      true,
}

// testOnlyPkgs are module-relative import paths only _test.go files
// may import.
var testOnlyPkgs = map[string]bool{
	"internal/evaltest": true,
}

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		args = []string{"./..."}
	}
	root, module, err := findModule()
	if err != nil {
		fmt.Fprintln(os.Stderr, "repolint:", err)
		os.Exit(2)
	}
	dirs, err := expandDirs(root, args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repolint:", err)
		os.Exit(2)
	}
	l := newLinter(root, module)
	for _, dir := range dirs {
		if err := l.lintDir(dir); err != nil {
			fmt.Fprintln(os.Stderr, "repolint:", err)
			os.Exit(2)
		}
	}
	sort.Slice(l.findings, func(i, j int) bool { return l.findings[i] < l.findings[j] })
	for _, f := range l.findings {
		fmt.Println(f)
	}
	if len(l.findings) > 0 {
		fmt.Fprintf(os.Stderr, "repolint: %d finding(s)\n", len(l.findings))
		os.Exit(1)
	}
}

// findModule locates go.mod upward from the working directory and
// returns the module root and module path.
func findModule() (root, module string, err error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		data, rerr := os.ReadFile(filepath.Join(dir, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("no module line in %s/go.mod", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above working directory")
		}
		dir = parent
	}
}

// expandDirs resolves "./..."-style arguments into the set of
// directories containing Go files.
func expandDirs(root string, args []string) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			out = append(out, dir)
		}
	}
	for _, a := range args {
		if rest, ok := strings.CutSuffix(a, "..."); ok {
			base := filepath.Join(root, filepath.FromSlash(strings.TrimSuffix(rest, "/")))
			err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != base && (strings.HasPrefix(name, ".") || name == "testdata") {
					return filepath.SkipDir
				}
				if hasGoFiles(path) {
					add(path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		add(filepath.Join(root, filepath.FromSlash(a)))
	}
	sort.Strings(out)
	return out, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// linter type-checks packages (memoized) and accumulates findings.
type linter struct {
	root     string
	module   string
	preGo122 bool // module go directive < 1.22: loop vars are shared
	fset     *token.FileSet
	stdlib   types.ImporterFrom
	pkgs     map[string]*types.Package // by import path
	infos    map[string]*pkgInfo       // by directory
	findings []string
}

// pkgInfo is one parsed-and-checked package directory.
type pkgInfo struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

func newLinter(root, module string) *linter {
	fset := token.NewFileSet()
	major, minor := moduleGoVersion(root)
	return &linter{
		root:     root,
		module:   module,
		preGo122: major == 1 && minor < 22,
		fset:     fset,
		stdlib:   importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:     make(map[string]*types.Package),
		infos:    make(map[string]*pkgInfo),
	}
}

// moduleGoVersion parses the "go" directive from the module's go.mod.
// Returns zeros if absent: loopcapture then stays off rather than
// guessing.
func moduleGoVersion(root string) (major, minor int) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return 0, 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "go "); ok {
			fmt.Sscanf(strings.TrimSpace(rest), "%d.%d", &major, &minor)
			return major, minor
		}
	}
	return 0, 0
}

// Import resolves module-internal import paths by type-checking the
// package from source; everything else (the standard library) goes to
// the source importer. This keeps the tool free of external deps.
func (l *linter) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.root, 0)
}

func (l *linter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/")
		info, err := l.check(filepath.Join(l.root, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		l.pkgs[path] = info.pkg
		return info.pkg, nil
	}
	pkg, err := l.stdlib.ImportFrom(path, dir, mode)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// check parses and type-checks the non-test Go files of one directory.
func (l *linter) check(dir string) (*pkgInfo, error) {
	if info, ok := l.infos[dir]; ok {
		return info, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Uses:  make(map[*ast.Ident]types.Object),
		Defs:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: l}
	rel, _ := filepath.Rel(l.root, dir)
	importPath := l.module
	if rel != "." {
		importPath = l.module + "/" + filepath.ToSlash(rel)
	}
	pkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", importPath, err)
	}
	pi := &pkgInfo{pkg: pkg, files: files, info: info}
	l.infos[dir] = pi
	return pi, nil
}

// lintDir runs all checks over one package directory.
func (l *linter) lintDir(dir string) error {
	pi, err := l.check(dir)
	if err != nil {
		return err
	}
	rel, _ := filepath.Rel(l.root, dir)
	rel = filepath.ToSlash(rel)
	inInternal := strings.HasPrefix(rel, "internal/")
	checkMapRange := orderedPkgs[filepath.Base(dir)] && inInternal
	// internal/par is the one place allowed to spawn raw goroutines: it
	// IS the executor everything else is told to use.
	checkGo := rel != "internal/par"
	for _, f := range pi.files {
		allowed := allowLines(l.fset, f)
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if !testOnlyPkgs[strings.TrimPrefix(path, l.module+"/")] {
				continue
			}
			pos := l.fset.Position(imp.Pos())
			if suppressed(allowed["testonly"], pos.Line) {
				continue
			}
			l.report(pos, "imports test-only package "+path+" from a non-test file; import it from _test.go files only or annotate //repolint:allow testonly")
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if !checkMapRange {
					return true
				}
				tv, ok := pi.info.Types[n.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				pos := l.fset.Position(n.Pos())
				if suppressed(allowed["maprange"], pos.Line) {
					return true
				}
				l.report(pos, "range over map: iteration order is random and this package's output must be deterministic; iterate sorted keys or annotate //repolint:allow maprange")
			case *ast.GoStmt:
				if !checkGo {
					return true
				}
				pos := l.fset.Position(n.Pos())
				if suppressed(allowed["goroutine"], pos.Line) {
					return true
				}
				l.report(pos, "naked go statement: spawn goroutines through internal/par so worker counts and stop flags stay centralized, or annotate //repolint:allow goroutine")
			case *ast.CallExpr:
				for _, arg := range n.Args {
					l.checkMutexCopy(pi, allowed, arg)
				}
				if l.isParCall(pi, n) {
					for _, arg := range n.Args {
						if fl, ok := arg.(*ast.FuncLit); ok {
							l.checkGuardCharge(pi, allowed, fl)
						}
					}
				}
				if !inInternal {
					return true
				}
				id, ok := n.Fun.(*ast.Ident)
				if !ok || id.Name != "panic" {
					return true
				}
				// Only the builtin, not a local function named panic.
				if _, isBuiltin := pi.info.Uses[id].(*types.Builtin); !isBuiltin {
					return true
				}
				pos := l.fset.Position(n.Pos())
				if suppressed(allowed["panic"], pos.Line) {
					return true
				}
				l.report(pos, "panic in library code: untrusted input must surface as errors with positions; return an error or annotate //repolint:allow panic")
			case *ast.AssignStmt:
				for _, rhs := range n.Rhs {
					l.checkMutexCopy(pi, allowed, rhs)
				}
			case *ast.ValueSpec:
				for _, v := range n.Values {
					l.checkMutexCopy(pi, allowed, v)
				}
			case *ast.ReturnStmt:
				for _, r := range n.Results {
					l.checkMutexCopy(pi, allowed, r)
				}
			}
			return true
		})
		if l.preGo122 {
			l.checkLoopCapture(pi, f, allowed)
		}
	}
	return nil
}

// checkMutexCopy flags e when it reads an existing value whose type
// recursively contains a sync.Mutex or sync.RWMutex: the enclosing
// assignment, call, or return copies the lock. Fresh values (composite
// literals, function-call results, &x) are not copies and pass.
func (l *linter) checkMutexCopy(pi *pkgInfo, allowed map[string]map[int]bool, e ast.Expr) {
	switch unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
	default:
		return
	}
	tv, ok := pi.info.Types[e]
	if !ok || tv.Type == nil || !containsMutex(tv.Type, nil) {
		return
	}
	pos := l.fset.Position(e.Pos())
	if suppressed(allowed["mutexcopy"], pos.Line) {
		return
	}
	l.report(pos, "copies a value containing a sync.Mutex: a copied lock guards nothing; pass a pointer or annotate //repolint:allow mutexcopy")
}

// isParCall reports whether the call's callee is a function of this
// module's internal/par package (the worker executor).
func (l *linter) isParCall(pi *pkgInfo, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pi.info.Uses[id].(*types.PkgName)
	if !ok {
		return false
	}
	return pn.Imported().Path() == l.module+"/internal/par"
}

// checkGuardCharge flags budget accounting lexically inside a worker
// closure handed to internal/par: meter creation, charge/wall checks,
// and *guard.Meter values passed on to callees. All of those run
// concurrently across workers, so a shared meter's trip point would
// depend on the worker count.
func (l *linter) checkGuardCharge(pi *pkgInfo, allowed map[string]map[int]bool, fl *ast.FuncLit) {
	flag := func(p token.Pos, what string) {
		pos := l.fset.Position(p)
		if suppressed(allowed["guardcharge"], pos.Line) {
			return
		}
		l.report(pos, what+" inside a par worker closure: concurrent budget accounting makes trip points worker-count-dependent; charge at a single-threaded point or annotate //repolint:allow guardcharge")
	}
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if tv, ok := pi.info.Types[sel.X]; ok && tv.Type != nil {
				switch {
				case sel.Sel.Name == "Meter" && l.isGuardType(tv.Type, "Budget"):
					flag(call.Pos(), "creates a guard.Meter")
				case (sel.Sel.Name == "Charge" || sel.Sel.Name == "CheckWall") && l.isGuardType(tv.Type, "Meter"):
					flag(call.Pos(), "charges a guard.Meter")
				}
			}
		}
		for _, a := range call.Args {
			if tv, ok := pi.info.Types[a]; ok && tv.Type != nil && l.isGuardType(tv.Type, "Meter") {
				flag(a.Pos(), "passes a *guard.Meter to a callee")
			}
		}
		return true
	})
}

// isGuardType reports whether t (or its pointee) is the named type
// internal/guard.<name> of this module.
func (l *linter) isGuardType(t types.Type, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil &&
		obj.Pkg().Path() == l.module+"/internal/guard" && obj.Name() == name
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// containsMutex reports whether t recursively contains a sync.Mutex or
// sync.RWMutex (through struct fields and array elements; pointers,
// slices, and maps share rather than copy, so they stop the search).
func containsMutex(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	if seen == nil {
		seen = make(map[types.Type]bool)
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		if obj := t.Obj(); obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
			if name := obj.Name(); name == "Mutex" || name == "RWMutex" {
				return true
			}
		}
		return containsMutex(t.Underlying(), seen)
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if containsMutex(t.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsMutex(t.Elem(), seen)
	}
	return false
}

// checkLoopCapture flags go statements whose function literal reads a
// loop variable. Only meaningful for modules on go < 1.22, where every
// iteration shares one variable and the goroutines race on it.
func (l *linter) checkLoopCapture(pi *pkgInfo, f *ast.File, allowed map[string]map[int]bool) {
	ast.Inspect(f, func(n ast.Node) bool {
		loopVars := make(map[types.Object]bool)
		var body *ast.BlockStmt
		switch s := n.(type) {
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{s.Key, s.Value} {
				if id, ok := e.(*ast.Ident); ok {
					if obj := pi.info.Defs[id]; obj != nil {
						loopVars[obj] = true
					}
				}
			}
			body = s.Body
		case *ast.ForStmt:
			if as, ok := s.Init.(*ast.AssignStmt); ok && as.Tok == token.DEFINE {
				for _, e := range as.Lhs {
					if id, ok := e.(*ast.Ident); ok {
						if obj := pi.info.Defs[id]; obj != nil {
							loopVars[obj] = true
						}
					}
				}
			}
			body = s.Body
		default:
			return true
		}
		if len(loopVars) == 0 {
			return true
		}
		ast.Inspect(body, func(m ast.Node) bool {
			g, ok := m.(*ast.GoStmt)
			if !ok {
				return true
			}
			fl, ok := g.Call.Fun.(*ast.FuncLit)
			if !ok {
				return true
			}
			captured := false
			ast.Inspect(fl.Body, func(x ast.Node) bool {
				if id, ok := x.(*ast.Ident); ok {
					if obj := pi.info.Uses[id]; obj != nil && loopVars[obj] {
						captured = true
					}
				}
				return true
			})
			if !captured {
				return true
			}
			pos := l.fset.Position(g.Pos())
			if suppressed(allowed["loopcapture"], pos.Line) {
				return true
			}
			l.report(pos, "goroutine captures a loop variable: on go < 1.22 iterations share the variable and the goroutines race on it; pass it as an argument or annotate //repolint:allow loopcapture")
			return true
		})
		return true
	})
}

func (l *linter) report(pos token.Position, msg string) {
	rel, err := filepath.Rel(l.root, pos.Filename)
	if err != nil {
		rel = pos.Filename
	}
	l.findings = append(l.findings,
		fmt.Sprintf("%s:%d:%d: %s", filepath.ToSlash(rel), pos.Line, pos.Column, msg))
}

// suppressed reports whether an annotation covers the finding at the
// given line: on the line itself, on the line above, or on the line
// below (the first line of a multi-line statement's body).
func suppressed(lines map[int]bool, line int) bool {
	return lines[line] || lines[line-1] || lines[line+1]
}

// allowLines collects, per check name, the source lines carrying a
// "//repolint:allow <check>" annotation. An annotation suppresses
// findings on its own line, the line above, and the line below it.
func allowLines(fset *token.FileSet, f *ast.File) map[string]map[int]bool {
	out := make(map[string]map[int]bool)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(strings.TrimPrefix(c.Text, "//"), "repolint:allow ")
			if !ok {
				continue
			}
			check := rest
			if i := strings.IndexAny(rest, " \t—"); i >= 0 {
				check = rest[:i]
			}
			if out[check] == nil {
				out[check] = make(map[int]bool)
			}
			out[check][fset.Position(c.Pos()).Line] = true
		}
	}
	return out
}
