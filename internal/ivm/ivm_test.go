package ivm_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"datalogeq/internal/ast"
	"datalogeq/internal/database"
	"datalogeq/internal/eval"
	"datalogeq/internal/gen"
	"datalogeq/internal/guard"
	_ "datalogeq/internal/ivm"
	"datalogeq/internal/parser"
)

// tc is the standard transitive-closure program used throughout.
const tcSrc = `
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
`

func mustMaintain(t *testing.T, prog *ast.Program, edb *database.DB, opts eval.Options) *eval.Handle {
	t.Helper()
	h, _, err := eval.Maintain(prog, edb, opts)
	if err != nil {
		t.Fatalf("Maintain: %v", err)
	}
	return h
}

// fromScratch evaluates prog over base and returns the sorted fact
// rendering.
func fromScratch(t *testing.T, prog *ast.Program, base *database.DB) string {
	t.Helper()
	out, _, err := eval.Eval(prog, base, eval.Options{})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	return out.String()
}

// usNoWall strips the wall-clock component for bit-identity checks.
func usNoWall(u eval.UpdateStats) eval.UpdateStats {
	u.Budget.Wall = 0
	return u
}

func TestInsertChainMatchesFromScratch(t *testing.T) {
	prog := parser.MustProgram(tcSrc)
	base := database.MustParse("e(a, b). e(b, c).")
	h := mustMaintain(t, prog, base, eval.Options{})

	us, err := h.Insert(parser.MustAtomList("e(c, d)"))
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	base.AddAtom(parser.MustAtom("e(c, d)"))
	if got, want := h.DB().String(), fromScratch(t, prog, base); got != want {
		t.Fatalf("after insert:\n%s\nwant:\n%s", got, want)
	}
	// e(c,d) itself plus tc(c,d), tc(b,d), tc(a,d).
	if us.RowsInserted != 4 {
		t.Errorf("RowsInserted = %d, want 4", us.RowsInserted)
	}
	if us.StrataRun != 1 {
		t.Errorf("StrataRun = %d, want 1", us.StrataRun)
	}
}

func TestInsertDuplicateAndDerived(t *testing.T) {
	prog := parser.MustProgram(tcSrc)
	base := database.MustParse("e(a, b). e(b, c).")
	h := mustMaintain(t, prog, base, eval.Options{})

	// tc(a,c) is already derived; asserting it as a base fact must only
	// add support, not rows, and retracting the assertion must keep it.
	if us, err := h.Insert(parser.MustAtomList("tc(a, c)")); err != nil || us.RowsInserted != 0 {
		t.Fatalf("insert derived: us=%+v err=%v", us, err)
	}
	if us, err := h.Insert(parser.MustAtomList("tc(a, c)")); err != nil || us.CountUpdates != 0 {
		t.Fatalf("re-insert should be a no-op: us=%+v err=%v", us, err)
	}
	if us, err := h.Retract(parser.MustAtomList("tc(a, c)")); err != nil || us.RowsDeleted != 0 {
		t.Fatalf("retract assertion should keep derived row: us=%+v err=%v", us, err)
	}
	if got, want := h.DB().String(), fromScratch(t, prog, database.MustParse("e(a, b). e(b, c).")); got != want {
		t.Fatalf("after assert+retract:\n%s\nwant:\n%s", got, want)
	}
}

func TestRetractChain(t *testing.T) {
	prog := parser.MustProgram(tcSrc)
	base := database.MustParse("e(a, b). e(b, c).")
	h := mustMaintain(t, prog, base, eval.Options{})

	us, err := h.Retract(parser.MustAtomList("e(a, b)"))
	if err != nil {
		t.Fatalf("Retract: %v", err)
	}
	if got, want := h.DB().String(), fromScratch(t, prog, database.MustParse("e(b, c).")); got != want {
		t.Fatalf("after retract:\n%s\nwant:\n%s", got, want)
	}
	// e(a,b), tc(a,b), tc(a,c) die; nothing rederives.
	if us.RowsDeleted != 3 || us.Rederived != 0 {
		t.Errorf("us = %+v, want 3 deleted, 0 rederived", us)
	}
}

func TestRetractDiamondRederives(t *testing.T) {
	// Two paths a→d; deleting one leg must overdelete tc(a,d) and then
	// revive it from the surviving leg.
	prog := parser.MustProgram(tcSrc)
	base := database.MustParse("e(a, b). e(a, c). e(b, d). e(c, d).")
	h := mustMaintain(t, prog, base, eval.Options{})

	us, err := h.Retract(parser.MustAtomList("e(a, b)"))
	if err != nil {
		t.Fatalf("Retract: %v", err)
	}
	if us.Rederived == 0 {
		t.Errorf("expected rederivations, got %+v", us)
	}
	if got, want := h.DB().String(), fromScratch(t, prog, database.MustParse("e(a, c). e(b, d). e(c, d).")); got != want {
		t.Fatalf("after retract:\n%s\nwant:\n%s", got, want)
	}
}

func TestRetractCycle(t *testing.T) {
	// A 2-cycle gives every tc row cyclic support; counts alone cannot
	// decide deletion, overdelete + rederive must.
	prog := parser.MustProgram(tcSrc)
	base := database.MustParse("e(a, b). e(b, a).")
	h := mustMaintain(t, prog, base, eval.Options{})

	if _, err := h.Retract(parser.MustAtomList("e(a, b)")); err != nil {
		t.Fatalf("Retract: %v", err)
	}
	if got, want := h.DB().String(), fromScratch(t, prog, database.MustParse("e(b, a).")); got != want {
		t.Fatalf("after retract:\n%s\nwant:\n%s", got, want)
	}
}

func TestMultiStratumCascade(t *testing.T) {
	// Kills must cross stratum boundaries: reach is downstream of tc.
	prog := parser.MustProgram(tcSrc + "reach(Y) :- tc(a, Y).\n")
	base := database.MustParse("e(a, b). e(b, c). e(x, c).")
	h := mustMaintain(t, prog, base, eval.Options{})

	if _, err := h.Retract(parser.MustAtomList("e(b, c)")); err != nil {
		t.Fatalf("Retract: %v", err)
	}
	if got, want := h.DB().String(), fromScratch(t, prog, database.MustParse("e(a, b). e(x, c).")); got != want {
		t.Fatalf("after retract:\n%s\nwant:\n%s", got, want)
	}
	if _, err := h.Insert(parser.MustAtomList("e(b, c)")); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if got, want := h.DB().String(), fromScratch(t, prog, database.MustParse("e(a, b). e(b, c). e(x, c).")); got != want {
		t.Fatalf("after reinsert:\n%s\nwant:\n%s", got, want)
	}
}

func TestMaintainRejectsUnboundHead(t *testing.T) {
	prog := parser.MustProgram("p(X, Y) :- q(X).")
	if _, _, err := eval.Maintain(prog, database.MustParse("q(a)."), eval.Options{}); err == nil {
		t.Fatal("expected error for head variable unbound by body")
	}
}

func TestInsertRejectsNonGround(t *testing.T) {
	prog := parser.MustProgram(tcSrc)
	h := mustMaintain(t, prog, database.MustParse("e(a, b)."), eval.Options{})
	if _, err := h.Insert([]ast.Atom{parser.MustAtom("e(X, b)")}); err == nil {
		t.Fatal("expected error for non-ground fact")
	}
	if _, err := h.Insert([]ast.Atom{parser.MustAtom("e(a)")}); err == nil {
		t.Fatal("expected error for arity mismatch")
	}
	// A rejected batch must leave the handle usable.
	if _, err := h.Insert(parser.MustAtomList("e(b, c)")); err != nil {
		t.Fatalf("handle unusable after rejected batch: %v", err)
	}
}

func TestBudgetTripPoisonsHandle(t *testing.T) {
	prog := parser.MustProgram(tcSrc)
	base := gen.ChainGraph(30)
	h := mustMaintain(t, prog, base, eval.Options{})

	_, err := h.Retract(parser.MustAtomList("e(n0, n1)"))
	if err != nil {
		t.Fatalf("unbudgeted retract: %v", err)
	}
	h2 := mustMaintain(t, prog, base, eval.Options{Budget: guard.Budget{MaxMaintained: 5}})
	_, err = h2.Retract(parser.MustAtomList("e(n0, n1)"))
	var le *guard.LimitError
	if !errorsAs(err, &le) || le.Resource != guard.Maintained {
		t.Fatalf("err = %v, want Maintained limit", err)
	}
	if _, err := h2.Insert(parser.MustAtomList("e(a, b)")); err == nil {
		t.Fatal("expected poisoned handle to reject further updates")
	}
}

// errorsAs avoids importing errors just for one call.
func errorsAs(err error, target **guard.LimitError) bool {
	for err != nil {
		if le, ok := err.(*guard.LimitError); ok {
			*target = le
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// applyOp mirrors one update on the shadow base database.
func applyOp(base *database.DB, insert bool, facts []ast.Atom) {
	for _, a := range facts {
		if insert {
			base.AddAtom(a)
		} else {
			if r := base.Lookup(a.Pred); r != nil {
				row := make(database.Row, 0, len(a.Args))
				for _, t := range a.Args {
					row = append(row, database.Intern(t.Name))
				}
				if id := r.RowID(row); id >= 0 {
					r.DeleteRows(func(i int) bool { return i == int(id) })
				}
			}
		}
	}
}

// randomOps builds a deterministic insert/retract schedule over a small
// edge universe, biased so both paths get exercised.
func randomOps(rng *rand.Rand, nodes, steps, batch int) []struct {
	insert bool
	facts  []ast.Atom
} {
	ops := make([]struct {
		insert bool
		facts  []ast.Atom
	}, steps)
	for i := range ops {
		ops[i].insert = rng.Intn(3) != 0
		n := 1 + rng.Intn(batch)
		for j := 0; j < n; j++ {
			x, y := rng.Intn(nodes), rng.Intn(nodes)
			ops[i].facts = append(ops[i].facts, parser.MustAtom(fmt.Sprintf("e(n%d, n%d)", x, y)))
		}
	}
	return ops
}

// TestDifferentialRandom drives random insert/retract sequences through
// handles built with 1, 2 and 8 workers, checking after every update
// that (a) the maintained database equals a from-scratch fixpoint of
// the shadow base and (b) the three handles agree bit-for-bit on both
// the database and the UpdateStats.
func TestDifferentialRandom(t *testing.T) {
	progs := map[string]*ast.Program{
		"tc":      parser.MustProgram(tcSrc),
		"layered": gen.LayeredTC(),
		"multi":   parser.MustProgram(tcSrc + "reach(Y) :- tc(a, Y).\nboth(X, Y) :- tc(X, Y), tc(Y, X).\n"),
	}
	for name, prog := range progs {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				base := gen.RandomGraph(rand.New(rand.NewSource(seed+100)), 8, 14)
				handles := make([]*eval.Handle, 0, 3)
				for _, w := range []int{1, 2, 8} {
					handles = append(handles, mustMaintain(t, prog, base, eval.Options{Workers: w}))
				}
				shadow := base.Clone()
				for step, op := range randomOps(rng, 8, 12, 3) {
					applyOp(shadow, op.insert, op.facts)
					want := fromScratch(t, prog, shadow)
					var first eval.UpdateStats
					for wi, h := range handles {
						var us eval.UpdateStats
						var err error
						if op.insert {
							us, err = h.Insert(op.facts)
						} else {
							us, err = h.Retract(op.facts)
						}
						if err != nil {
							t.Fatalf("seed %d step %d (insert=%v): %v", seed, step, op.insert, err)
						}
						if got := h.DB().String(); got != want {
							t.Fatalf("seed %d step %d (insert=%v) handle %d diverged:\n got:\n%s\nwant:\n%s",
								seed, step, op.insert, wi, got, want)
						}
						if wi == 0 {
							first = us
						} else if usNoWall(us) != usNoWall(first) {
							t.Fatalf("seed %d step %d: UpdateStats differ across workers: %+v vs %+v",
								seed, step, usNoWall(us), usNoWall(first))
						}
					}
				}
			}
		})
	}
}

// FuzzIncremental feeds byte-driven update schedules through the
// maintainer and cross-checks every state against a from-scratch
// fixpoint. Each byte encodes one single-fact update: bit 7 selects
// insert/retract, the rest pick the edge.
func FuzzIncremental(f *testing.F) {
	f.Add([]byte{0x01, 0x23, 0x81, 0x45})
	f.Add([]byte{0x80, 0x00, 0xff, 0x7f, 0x03})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 24 {
			script = script[:24]
		}
		prog := parser.MustProgram(tcSrc)
		base := database.MustParse("e(n0, n1). e(n1, n2). e(n2, n0).")
		h, _, err := eval.Maintain(prog, base, eval.Options{})
		if err != nil {
			t.Fatalf("Maintain: %v", err)
		}
		shadow := base.Clone()
		for _, b := range script {
			insert := b&0x80 != 0
			x, y := int(b>>3)&0x7, int(b)&0x7
			facts := []ast.Atom{parser.MustAtom(fmt.Sprintf("e(n%d, n%d)", x, y))}
			applyOp(shadow, insert, facts)
			if insert {
				_, err = h.Insert(facts)
			} else {
				_, err = h.Retract(facts)
			}
			if err != nil {
				t.Fatalf("update: %v", err)
			}
			want, _, err := eval.Eval(prog, shadow, eval.Options{})
			if err != nil {
				t.Fatalf("Eval: %v", err)
			}
			if got := h.DB().String(); got != want.String() {
				t.Fatalf("diverged after %02x:\n got:\n%s\nwant:\n%s", b, got, want)
			}
		}
	})
}

// TestMaintainOwnsItsStore pins the ownership contract between a handle
// and the database it was built from: updates never reach the caller's
// edb — not its facts, its indexes or its stats epoch — and the caller
// may change edb afterwards without disturbing the handle. Eval returns
// a copy-on-write layer over its input; the maintainer takes private
// storage for all of it.
func TestMaintainOwnsItsStore(t *testing.T) {
	prog := parser.MustProgram(tcSrc + "hot(Y) :- tc(a, Y).\n")
	input := func() *database.DB {
		edb := database.MustParse("e(a, b). e(b, c). e(c, d). tc(z, z).")
		edb.Lookup("e").EnsureIndex(2)
		return edb
	}

	t.Run("updates leave edb unchanged", func(t *testing.T) {
		edb := input()
		facts, epoch, masks := edb.String(), edb.StatsEpoch(), edb.Lookup("e").IndexMasks()
		unchanged := func(when string) {
			t.Helper()
			if edb.String() != facts || edb.StatsEpoch() != epoch || !reflect.DeepEqual(edb.Lookup("e").IndexMasks(), masks) {
				t.Fatalf("%s changed the caller's edb", when)
			}
		}
		h := mustMaintain(t, prog, edb, eval.Options{Workers: 2})
		unchanged("Maintain")
		if _, err := h.Insert(parser.MustAtomList("e(d, f), tc(y, y)")); err != nil {
			t.Fatal(err)
		}
		unchanged("Insert")
		if _, err := h.Retract(parser.MustAtomList("e(a, b), tc(z, z)")); err != nil {
			t.Fatal(err)
		}
		unchanged("Retract")
		if edb.Contains("e", database.Tuple{"d", "f"}) || edb.Contains("tc", database.Tuple{"y", "y"}) {
			t.Fatal("inserted facts reached the caller's edb")
		}
	})

	t.Run("edb changes leave the handle unchanged", func(t *testing.T) {
		edb := input()
		h := mustMaintain(t, prog, edb, eval.Options{Workers: 2})
		live := h.DB().String()
		// Before any update: the handle has written nothing of e yet.
		edb.Lookup("e").DeleteRows(func(i int) bool { return i == 1 })
		edb.Add("e", database.Tuple{"q", "r"})
		edb.Lookup("tc").DeleteRows(func(int) bool { return true })
		if got := h.DB().String(); got != live {
			t.Fatalf("changing edb after Maintain changed the handle:\n%s\nwant:\n%s", got, live)
		}
		if _, err := h.Insert(parser.MustAtomList("e(d, f)")); err != nil {
			t.Fatal(err)
		}
		if got, want := h.DB().String(), fromScratch(t, prog, h.Base().Clone()); got != want {
			t.Fatalf("handle diverged from its base:\n%s\nwant:\n%s", got, want)
		}
	})
}
