package eval_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"datalogeq/internal/ast"
	"datalogeq/internal/database"
	"datalogeq/internal/eval"
	"datalogeq/internal/evaltest"
	"datalogeq/internal/gen"
	"datalogeq/internal/guard"
	"datalogeq/internal/parser"
)

// assertOracleAgrees runs the engine at 1 and 4 workers and the
// reference evaluator (internal/evaltest: naive rounds, textual body
// order, nested loops) on the same input and asserts they agree. When
// the fixpoint has at most opts.Budget.MaxFacts derived facts (or the
// budget is unlimited) the engine must finish with the oracle's fact
// set and Derived count; when it has more, the engine must trip the
// facts budget, as the oracle does.
func assertOracleAgrees(t *testing.T, prog *ast.Program, db *database.DB, opts eval.Options) {
	t.Helper()
	ref, refErr := evaltest.Eval(prog, db, int(opts.Budget.MaxFacts))
	tooLarge := errors.Is(refErr, evaltest.ErrTooLarge)
	for _, w := range []int{1, 4} {
		opts.Workers = w
		out, stats, err := eval.Eval(prog, db, opts)
		if tooLarge {
			var le *guard.LimitError
			if !errors.As(err, &le) || le.Resource != guard.Facts {
				t.Fatalf("workers=%d: oracle exceeds %d facts, engine err = %v", w, opts.Budget.MaxFacts, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("workers=%d: engine err = %v, oracle derived %d facts", w, err, ref.Derived)
		}
		if !out.Equal(ref.DB) {
			t.Fatalf("workers=%d: engine fixpoint differs from the oracle's:\n%s\nvs\n%s", w, out, ref.DB)
		}
		if stats.Derived != ref.Derived {
			t.Fatalf("workers=%d: engine derived %d facts, oracle %d", w, stats.Derived, ref.Derived)
		}
	}
}

// TestPlannerOffDifferentialTestdata runs every testdata program over
// random databases through the planned engine and through the oracle,
// which joins in textual order with no planner, and asserts the same
// fixpoint.
func TestPlannerOffDifferentialTestdata(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.dl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := parser.ProgramUnvalidated(string(src))
		if err != nil || len(prog.Rules) == 0 || prog.Validate() != nil {
			continue // fact files and non-program data
		}
		for seed := int64(0); seed < 3; seed++ {
			assertOracleAgrees(t, prog, edbFor(prog, seed, 5, 12), eval.Options{})
		}
	}
}

// TestPlannerOffDifferentialBudgetTrips: a facts budget trips exactly
// when the oracle's fixpoint exceeds it, and a steps budget exactly
// when the unbounded run's firings exceed it. Either way the trip lands
// at the same point for every worker count.
func TestPlannerOffDifferentialBudgetTrips(t *testing.T) {
	prog := parser.MustProgram(`
		p(X, Y) :- e(X, Z), p(Z, Y).
		p(X, Y) :- e(X, Y).
	`)
	db := gen.ChainGraph(30)
	full, fullStats, err := eval.Eval(prog, db, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	derived := int64(fullStats.Derived)
	for _, limit := range []int64{1, 7, 50, 200, derived - 1, derived} {
		opts := eval.Options{Budget: guard.Budget{MaxFacts: limit}}
		assertOracleAgrees(t, prog, db, opts)
		assertWorkersAgree(t, prog, db, opts)
	}
	for _, limit := range []int64{1, 100, int64(fullStats.Firings) - 1, int64(fullStats.Firings)} {
		opts := eval.Options{Budget: guard.Budget{MaxSteps: limit}}
		out, _, err := eval.Eval(prog, db, opts)
		var le *guard.LimitError
		tripped := errors.As(err, &le) && le.Resource == guard.Steps
		if want := limit < int64(fullStats.Firings); tripped != want || (!want && err != nil) {
			t.Errorf("steps limit %d over %d firings: err = %v", limit, fullStats.Firings, err)
		}
		if !tripped && !out.Equal(full) {
			t.Errorf("steps limit %d: untripped run differs from the unbounded one", limit)
		}
		assertWorkersAgree(t, prog, db, opts)
	}
}

// TestPlanCacheStableRounds pins the plan cache's behavior over a long
// fixpoint: transitive closure of a chain runs one delta task per round
// against a store whose shape stabilizes quickly, so almost every round
// hits the cache, replans happen only when the stats epoch moves
// (power-of-two growth crossings of p), and every miss — and only a
// miss — is charged to the budget's Plans dimension.
func TestPlanCacheStableRounds(t *testing.T) {
	prog := parser.MustProgram(`
		p(X, Y) :- e(X, Z), p(Z, Y).
		p(X, Y) :- e(X, Y).
	`)
	_, stats, err := eval.Eval(prog, gen.ChainGraph(120), eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Round 1 runs two full-store tasks; every later round exactly one
	// delta task.
	total := stats.PlanCacheHits + stats.PlanCacheMisses
	if want := uint64(stats.Iterations) + 1; total != want {
		t.Errorf("hits+misses = %d, want %d (one task per round plus round 1's extra)", total, want)
	}
	// Three distinct plan shapes exist (two full-round, one delta), so
	// every miss beyond the first three is a replan at a new epoch.
	if stats.PlanCacheMisses != stats.PlanReplans+3 {
		t.Errorf("misses = %d, replans = %d; want misses == replans + 3 shapes",
			stats.PlanCacheMisses, stats.PlanReplans)
	}
	// Stable rounds must reuse cached plans: the store's shape changes
	// O(log derived) times, not once per round.
	if stats.PlanCacheHits < 4*stats.PlanCacheMisses {
		t.Errorf("hit rate too low: %d hits, %d misses over %d rounds",
			stats.PlanCacheHits, stats.PlanCacheMisses, stats.Iterations)
	}
	if got := uint64(stats.Budget.Plans); got != stats.PlanCacheMisses {
		t.Errorf("budget charged %d plans, want one per cache miss (%d)", got, stats.PlanCacheMisses)
	}
}

// TestStarJoinPlannedBeatsFixedOrder is the planner's reason to exist,
// measured structurally rather than by wall clock: on a star join with
// the selective atom textually last, the planned order must touch at
// most half the intermediate rows the textual left-to-right order of
// the oracle does (the generator's keys/selKeys ratio makes the true
// gap ~30x), while deriving exactly the same facts.
func TestStarJoinPlannedBeatsFixedOrder(t *testing.T) {
	prog, db := gen.StarJoin(3, 120, 2, 4)
	out, on, exOn, err := eval.EvalExplain(prog, db, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := evaltest.Eval(prog, db, 0)
	if err != nil {
		t.Fatal(err)
	}
	if on.Derived != ref.Derived || !out.Equal(ref.DB) {
		t.Fatalf("engine and oracle disagree on the fixpoint: derived %d/%d", on.Derived, ref.Derived)
	}
	// The program is one nonrecursive rule: the engine fires it once,
	// and every naive round of the oracle repeats the same textual-order
	// join, so one round's rows are the fixed order's cost.
	var offRows uint64
	for _, v := range ref.Rows[0] {
		offRows += v
	}
	offRows /= uint64(ref.Rounds)
	onRows := totalActual(exOn)
	if onRows == 0 || offRows < 2*onRows {
		t.Errorf("planned order saves no work: %d rows planned vs %d textual order", onRows, offRows)
	}
	// The chosen join tree must open at the selective atom even though
	// it is textually last.
	txt := exOn.Rules[0].Plans[0].Text
	if i, j := strings.Index(txt, "sel("), strings.Index(txt, "d1("); i < 0 || j < 0 || i > j {
		t.Errorf("planned join tree does not start at the selective atom:\n%s", txt)
	}
}

// totalActual sums the per-step actual row counts over every plan in
// the report — the evaluation's total intermediate-result volume.
func totalActual(ex *eval.Explain) uint64 {
	var n uint64
	for _, re := range ex.Rules {
		for _, pe := range re.Plans {
			for _, v := range pe.Actual {
				n += v
			}
		}
	}
	return n
}

// FuzzPlannedEval fuzzes the planner against the oracle: for any
// program the parser accepts and any random database, the planned
// engine at 1 and 4 workers derives the same fact set and the same
// Derived count as the textual-order naive reference evaluator, or
// trips its facts budget exactly when the oracle's fixpoint exceeds it.
func FuzzPlannedEval(f *testing.F) {
	files, _ := filepath.Glob(filepath.Join("..", "..", "testdata", "*.dl"))
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src), int64(1))
	}
	f.Add("p(X, Y) :- e(X, Z), p(Z, Y).\np(X, Y) :- e(X, Y).", int64(7))
	f.Add("q(X) :- a(X, Y1), b(X, Y2), s(X).", int64(3))
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		prog, err := parser.ProgramUnvalidated(src)
		if err != nil || prog.Validate() != nil || len(prog.Rules) == 0 {
			return
		}
		assertOracleAgrees(t, prog, edbFor(prog, seed, 4, 8), eval.Options{Budget: guard.Budget{MaxFacts: 2000}})
	})
}
