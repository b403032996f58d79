package eval_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"datalogeq/internal/ast"
	"datalogeq/internal/eval"
	"datalogeq/internal/evaltest"
	"datalogeq/internal/gen"
)

// randProgram builds a small random (possibly recursive) safe program
// over binary EDB predicates e1, e2 and IDB predicates p, q.
func randProgram(rng *rand.Rand) *ast.Program {
	v := func(i int) ast.Term { return ast.V(fmt.Sprintf("V%d", i)) }
	preds := []string{"e1", "e2", "p", "q"}
	prog := &ast.Program{}
	nRules := 2 + rng.Intn(3)
	for r := 0; r < nRules; r++ {
		headPred := []string{"p", "q"}[rng.Intn(2)]
		nBody := 1 + rng.Intn(3)
		var body []ast.Atom
		for i := 0; i < nBody; i++ {
			pred := preds[rng.Intn(len(preds))]
			body = append(body, ast.NewAtom(pred, v(rng.Intn(4)), v(rng.Intn(4))))
		}
		// Safe head: reuse body variables.
		bv := ast.VarsOfAtoms(body)
		head := ast.NewAtom(headPred,
			ast.V(bv[rng.Intn(len(bv))]), ast.V(bv[rng.Intn(len(bv))]))
		prog.Rules = append(prog.Rules, ast.Rule{Head: head, Body: body})
	}
	return prog
}

// Property: the semi-naive engine and the naive reference evaluator
// compute identical fixpoints on random programs and databases.
func TestQuickNaiveSemiNaiveAgree(t *testing.T) {
	preds := map[string]int{"e1": 2, "e2": 2}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		prog := randProgram(rng)
		db := gen.RandomDB(rng, preds, 4, 6)
		a, stats, err := eval.Eval(prog, db, eval.Options{})
		if err != nil {
			return false
		}
		ref, err := evaltest.Eval(prog, db, 0)
		if err != nil {
			return false
		}
		return a.Equal(ref.DB) && stats.Derived == ref.Derived
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: evaluation is monotone in the database — adding facts never
// removes derived tuples.
func TestQuickMonotonicity(t *testing.T) {
	preds := map[string]int{"e1": 2, "e2": 2}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		prog := randProgram(rng)
		small := gen.RandomDB(rng, preds, 4, 4)
		big := small.Clone()
		extra := gen.RandomDB(rng, preds, 4, 3)
		for _, p := range extra.Preds() {
			for _, tup := range extra.Lookup(p).Tuples() {
				big.Add(p, tup)
			}
		}
		rs, _, err := eval.Eval(prog, small, eval.Options{})
		if err != nil {
			return false
		}
		rb, _, err := eval.Eval(prog, big, eval.Options{})
		if err != nil {
			return false
		}
		for _, p := range rs.Preds() {
			for _, tup := range rs.Lookup(p).Tuples() {
				if !rb.Contains(p, tup) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: the fixpoint is a model — re-running evaluation on the
// output derives nothing new.
func TestQuickFixpointIsStable(t *testing.T) {
	preds := map[string]int{"e1": 2, "e2": 2}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		prog := randProgram(rng)
		db := gen.RandomDB(rng, preds, 4, 5)
		once, _, err := eval.Eval(prog, db, eval.Options{})
		if err != nil {
			return false
		}
		twice, _, err := eval.Eval(prog, once, eval.Options{})
		if err != nil {
			return false
		}
		return once.Equal(twice)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
