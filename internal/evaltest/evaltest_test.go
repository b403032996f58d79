package evaltest_test

import (
	"errors"
	"testing"

	"datalogeq/internal/database"
	"datalogeq/internal/evaltest"
	"datalogeq/internal/parser"
)

// TestReferenceFixpoints pins the oracle itself on small hand-checked
// programs, since every differential test trusts it.
func TestReferenceFixpoints(t *testing.T) {
	for _, c := range []struct {
		name, prog, db, want string
		rounds, firings      int
	}{
		{
			name:    "transitive closure",
			prog:    "p(X, Y) :- e(X, Z), p(Z, Y).\np(X, Y) :- e(X, Y).",
			db:      "e(a, b). e(b, c). e(c, d).",
			want:    "e(a, b). e(b, c). e(c, d). p(a, b). p(b, c). p(c, d). p(a, c). p(b, d). p(a, d).",
			rounds:  4,
			firings: 3 + (3 + 2) + (3 + 2 + 1) + (3 + 2 + 1),
		},
		{
			name:    "unbound head variable over the active domain",
			prog:    "pair(X, W) :- e(X).\nd(X, X).",
			db:      "e(a). f(b).",
			want:    "e(a). f(b). pair(a, a). pair(a, b). d(a, a). d(b, b).",
			rounds:  2,
			firings: 2 * (2 + 2),
		},
		{
			name:    "constants and repeated variables",
			prog:    "loop(X) :- e(X, X).\nspecial(X) :- e(a, X).\nk(c).",
			db:      "e(a, a). e(a, b). e(b, b).",
			want:    "e(a, a). e(a, b). e(b, b). loop(a). loop(b). special(a). special(b). k(c).",
			rounds:  2,
			firings: 2 * (2 + 2 + 1),
		},
	} {
		prog := parser.MustProgram(c.prog)
		edb := database.MustParse(c.db)
		res, err := evaltest.Eval(prog, edb, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want := database.MustParse(c.want)
		if !res.DB.Equal(want) {
			t.Errorf("%s: fixpoint\n%s\nwant\n%s", c.name, res.DB, want)
		}
		if res.Derived != want.FactCount()-edb.FactCount() {
			t.Errorf("%s: derived %d, want %d", c.name, res.Derived, want.FactCount()-edb.FactCount())
		}
		if res.Rounds != c.rounds || res.Firings != c.firings {
			t.Errorf("%s: rounds/firings = %d/%d, want %d/%d", c.name, res.Rounds, res.Firings, c.rounds, c.firings)
		}
		if edb.FactCount() != database.MustParse(c.db).FactCount() {
			t.Errorf("%s: input database modified", c.name)
		}
	}
}

// TestReferenceRowsAndLimit: Rows counts left-to-right partial matches
// per textual body atom, and a fact limit stops the run with
// ErrTooLarge.
func TestReferenceRowsAndLimit(t *testing.T) {
	prog := parser.MustProgram("q(X) :- d(X, Y), s(X).")
	edb := database.MustParse("d(a, 1). d(a, 2). d(b, 1). s(a).")
	res, err := evaltest.Eval(prog, edb, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Two rounds, each: 3 rows out of d, 2 of them survive s.
	if got := res.Rows[0]; len(got) != 2 || got[0] != 6 || got[1] != 4 {
		t.Errorf("rows = %v, want [6 4]", got)
	}
	tc := parser.MustProgram("p(X, Y) :- e(X, Z), p(Z, Y).\np(X, Y) :- e(X, Y).")
	chain := database.MustParse("e(a, b). e(b, c). e(c, d). e(d, e).")
	if _, err := evaltest.Eval(tc, chain, 10); err != nil {
		t.Errorf("limit 10 over a 10-fact closure: %v", err)
	}
	if res, err := evaltest.Eval(tc, chain, 9); !errors.Is(err, evaltest.ErrTooLarge) || res.Derived <= 9 {
		t.Errorf("limit 9: err = %v, derived = %d", err, res.Derived)
	}
}
