package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree materializes a file tree under root.
func writeTree(t *testing.T, root string, files map[string]string) {
	t.Helper()
	for name, content := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLinter(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, map[string]string{
		"go.mod": "module example.com/lintme\n\ngo 1.22\n",
		// An ordered package: maprange is checked, and so is panic.
		"internal/core/a.go": `package core

func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func Allowed(m map[string]int) int {
	n := 0
	for range m { //repolint:allow maprange — counting is order-insensitive.
		n++
	}
	return n
}

func Bad(i int) int {
	if i < 0 {
		panic("negative")
	}
	return i
}

func Must(i int) int {
	if i < 0 {
		//repolint:allow panic — fixture: documented to panic.
		panic("negative")
	}
	return i
}
`,
		// Library code outside the ordered packages: panic is still
		// checked, maprange is not.
		"internal/other/b.go": `package other

func Sum(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

func Boom() { panic("boom") }
`,
		// A command: maprange and panic do not apply, but the goroutine
		// check does. The module is on go 1.22, so the loop-variable
		// capture is NOT additionally flagged (per-iteration variables).
		"cmd/tool/main.go": `package main

func main() {
	m := map[string]int{"a": 1}
	for range m {
		panic("fine here")
	}
	for k := range m {
		go func() { _ = k }()
	}
}
`,
		// Test files are skipped entirely.
		"internal/core/a_test.go": `package core

import "testing"

func TestPanic(t *testing.T) { defer func() { recover() }(); panic("ok") }
`,
	})

	dirs, err := expandDirs(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	l := newLinter(root, "example.com/lintme")
	for _, dir := range dirs {
		if err := l.lintDir(dir); err != nil {
			t.Fatal(err)
		}
	}

	want := map[string]string{
		"internal/core/a.go:5":   "range over map",
		"internal/core/a.go:21":  "panic in library code",
		"internal/other/b.go:11": "panic in library code",
		"cmd/tool/main.go:9":     "naked go statement",
	}
	for _, f := range l.findings {
		matched := false
		for prefix, msg := range want {
			if strings.HasPrefix(f, prefix+":") && strings.Contains(f, msg) {
				delete(want, prefix)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for prefix, msg := range want {
		t.Errorf("missing finding %q at %s", msg, prefix)
	}
}

// TestLinterConcurrency exercises the concurrency pass: naked go
// statements (with internal/par exempt), mutex copies, and — because
// this fixture module is on go 1.21 — loop-variable capture in
// goroutines.
func TestLinterConcurrency(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, map[string]string{
		"go.mod": "module example.com/concme\n\ngo 1.21\n",
		// The executor package itself may spawn raw goroutines.
		"internal/par/par.go": `package par

func Go(fn func()) { go fn() }
`,
		"internal/work/w.go": `package work

import "sync"

type guarded struct {
	mu sync.Mutex
	n  int
}

func Spawn(fn func()) {
	go fn()
}

func SpawnAllowed(fn func()) {
	go fn() //repolint:allow goroutine — fixture: managed elsewhere.
}

func Dup(g *guarded) guarded {
	h := *g
	return h
}

func take(g guarded) int { return g.n }

func Use(g *guarded) int { return take(*g) }

func Snapshot(g *guarded) guarded {
	return *g //repolint:allow mutexcopy — fixture: caller owns g exclusively.
}

func Loop(items []int, fn func(int)) {
	for _, it := range items {
		go func() { //repolint:allow goroutine — fixture: exercising loopcapture.
			fn(it)
		}()
	}
}
`,
	})

	dirs, err := expandDirs(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	l := newLinter(root, "example.com/concme")
	if !l.preGo122 {
		t.Fatal("go 1.21 module not detected as pre-1.22")
	}
	for _, dir := range dirs {
		if err := l.lintDir(dir); err != nil {
			t.Fatal(err)
		}
	}

	want := map[string]string{
		"internal/work/w.go:11": "naked go statement",
		"internal/work/w.go:19": "sync.Mutex",
		"internal/work/w.go:20": "sync.Mutex",
		"internal/work/w.go:25": "sync.Mutex",
		"internal/work/w.go:33": "captures a loop variable",
	}
	for _, f := range l.findings {
		matched := false
		for prefix, msg := range want {
			if strings.HasPrefix(f, prefix+":") && strings.Contains(f, msg) {
				delete(want, prefix)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for prefix, msg := range want {
		t.Errorf("missing finding %q at %s", msg, prefix)
	}
}

// TestLinterGuardCharge exercises the guardcharge pass: budget
// accounting inside worker closures passed to internal/par.
func TestLinterGuardCharge(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, map[string]string{
		"go.mod": "module example.com/guardme\n\ngo 1.22\n",
		"internal/par/par.go": `package par

func ForEach(workers, n int, fn func(int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}
`,
		"internal/guard/guard.go": `package guard

type Budget struct{ MaxSteps int64 }

type Meter struct{ steps int64 }

func (b Budget) Meter() *Meter { return &Meter{} }

func (m *Meter) Charge(phase string, n int64) error { return nil }

func (m *Meter) CheckWall(phase string) error { return nil }
`,
		"internal/work/w.go": `package work

import (
	"example.com/guardme/internal/guard"
	"example.com/guardme/internal/par"
)

func use(m *guard.Meter) {}

func SharedCharge(b guard.Budget, n int) {
	m := b.Meter()
	par.ForEach(1, n, func(i int) {
		_ = m.Charge("w", 1)
	})
}

func InnerMeter(b guard.Budget, n int) {
	par.ForEach(1, n, func(i int) {
		m := b.Meter()

		use(m)
	})
}

func SingleThreaded(b guard.Budget, n int) {
	m := b.Meter()
	par.ForEach(1, n, func(i int) {
		_ = i
	})
	_ = m.Charge("w", 1)
}

func PerIndex(b guard.Budget, n int) {
	meters := make([]*guard.Meter, n)
	par.ForEach(1, n, func(i int) {
		meters[i] = b.Meter() //repolint:allow guardcharge — fixture: one meter per index.
	})
}
`,
	})

	dirs, err := expandDirs(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	l := newLinter(root, "example.com/guardme")
	for _, dir := range dirs {
		if err := l.lintDir(dir); err != nil {
			t.Fatal(err)
		}
	}

	want := map[string]string{
		"internal/work/w.go:13": "charges a guard.Meter",
		"internal/work/w.go:19": "creates a guard.Meter",
		"internal/work/w.go:21": "passes a *guard.Meter",
	}
	for _, f := range l.findings {
		matched := false
		for prefix, msg := range want {
			if strings.HasPrefix(f, prefix+":") && strings.Contains(f, msg) {
				delete(want, prefix)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for prefix, msg := range want {
		t.Errorf("missing finding %q at %s", msg, prefix)
	}
}

// TestLinterTestOnly: a non-test file importing the test-only oracle
// package is flagged; _test.go importers and annotated lines are not.
func TestLinterTestOnly(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, map[string]string{
		"go.mod": "module example.com/lintme\n\ngo 1.22\n",
		"internal/evaltest/ref.go": `package evaltest

func Ref() int { return 1 }
`,
		"internal/eval/eval.go": `package eval

import "example.com/lintme/internal/evaltest"

func Eval() int { return evaltest.Ref() }
`,
		"internal/eval/eval_test.go": `package eval

import (
	"testing"

	"example.com/lintme/internal/evaltest"
)

func TestEval(t *testing.T) {
	if Eval() != evaltest.Ref() {
		t.Fatal("differs")
	}
}
`,
		"cmd/tool/main.go": `package main

import (
	"fmt"

	"example.com/lintme/internal/evaltest" //repolint:allow testonly — fixture: annotated importer.
)

func main() { fmt.Println(evaltest.Ref()) }
`,
	})
	dirs, err := expandDirs(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	l := newLinter(root, "example.com/lintme")
	for _, dir := range dirs {
		if err := l.lintDir(dir); err != nil {
			t.Fatal(err)
		}
	}
	if len(l.findings) != 1 || !strings.HasPrefix(l.findings[0], "internal/eval/eval.go:3:") ||
		!strings.Contains(l.findings[0], "test-only package example.com/lintme/internal/evaltest") {
		t.Errorf("findings = %q, want one testonly finding at internal/eval/eval.go:3", l.findings)
	}
}

// TestLinterSelfClean runs the linter over this repository itself: CI
// requires a clean run, so the test pins that state.
func TestLinterSelfClean(t *testing.T) {
	root, module, err := findModule()
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := expandDirs(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	l := newLinter(root, module)
	for _, dir := range dirs {
		if err := l.lintDir(dir); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range l.findings {
		t.Errorf("repolint finding: %s", f)
	}
}
