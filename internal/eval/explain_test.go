package eval_test

import (
	"strings"
	"testing"

	"datalogeq/internal/eval"
	"datalogeq/internal/gen"
	"datalogeq/internal/parser"
)

// TestEvalExplainMatchesEval: the instrumented entry point must return
// exactly what Eval returns — the per-step counters ride inside the
// workers' existing buffers and change nothing observable.
func TestEvalExplainMatchesEval(t *testing.T) {
	prog := parser.MustProgram(`
		p(X, Y) :- e(X, Z), p(Z, Y).
		p(X, Y) :- e(X, Y).
	`)
	db := gen.ChainGraph(12)
	base, baseStats, err := eval.Eval(prog, db, eval.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	out, stats, ex, err := eval.EvalExplain(prog, db, eval.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != base.String() {
		t.Error("EvalExplain database differs from Eval's")
	}
	if statsComparable(stats) != statsComparable(baseStats) {
		t.Errorf("EvalExplain stats = %+v, want %+v", statsComparable(stats), statsComparable(baseStats))
	}
	if ex == nil || len(ex.Rules) != 2 {
		t.Fatalf("explain reports %d rules, want 2", len(ex.Rules))
	}
}

// TestEvalExplainRendering: the report names the delta position, the
// access paths, and the plan-cache totals, using source variable names.
func TestEvalExplainRendering(t *testing.T) {
	prog := parser.MustProgram(`
		p(X, Y) :- e(X, Z), p(Z, Y).
		p(X, Y) :- e(X, Y).
	`)
	_, _, ex, err := eval.EvalExplain(prog, gen.ChainGraph(12), eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := ex.String()
	for _, want := range []string{
		"p(X, Y) :- e(X, Z), p(Z, Y).", // rule source text
		"delta at body atom 2",         // semi-naive window position
		"Δp(",                          // delta atom marked in the tree
		"probe",                        // index access path
		"est ",                         // cost-model estimate
		"act ",                         // actual rows
		"plan cache:",                  // cache totals footer
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain rendering lacks %q:\n%s", want, out)
		}
	}
}
