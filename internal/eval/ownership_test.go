package eval

import (
	"reflect"
	"testing"

	"datalogeq/internal/database"
	"datalogeq/internal/parser"
)

// ownershipInput is an input database shaped like a served store: base
// facts, a head relation that already holds rows, and persistent
// indexes on both.
func ownershipInput() *database.DB {
	db := database.MustParse("e(a, b). e(b, c). e(c, d). p(z, z).")
	db.Lookup("e").EnsureIndex(2)
	db.Lookup("p").EnsureIndex(1)
	return db
}

// inputState is everything an evaluation must leave unchanged in its
// input.
type inputState struct {
	facts  string
	epoch  uint64
	masks  map[string][]uint64
	counts database.StorageStats
}

func captureInput(db *database.DB) inputState {
	st := inputState{facts: db.String(), epoch: db.StatsEpoch(), masks: map[string][]uint64{}, counts: db.StorageStats()}
	for _, p := range db.Preds() {
		st.masks[p] = db.Lookup(p).IndexMasks()
	}
	return st
}

func TestEvalOutputWritesLeaveInputUnchanged(t *testing.T) {
	prog := parser.MustProgram(`
		p(X, Y) :- e(X, Y).
		p(X, Y) :- e(X, Z), p(Z, Y).
		r(Y) :- e(X, Y), e(Y, Z).
	`)
	edb := ownershipInput()
	before := captureInput(edb)
	out, _, err := Eval(prog, edb, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(captureInput(edb), before) {
		t.Fatal("Eval changed its input")
	}
	// Write every kind of relation the result holds: a shared input
	// relation (e), an input relation a head wrote (p), and a relation
	// only the result has (r), through the DB and through Relation.
	out.Add("e", database.Tuple{"x", "y"})
	out.AddRow("p", database.Row{database.Intern("x"), database.Intern("x")})
	out.Lookup("e").Add(database.Tuple{"y", "x"})
	out.Lookup("p").AddRow(database.Row{database.Intern("y"), database.Intern("y")})
	out.Lookup("r").Add(database.Tuple{"x"})
	if !reflect.DeepEqual(captureInput(edb), before) {
		t.Fatal("writing Eval's output changed its input")
	}
	written := []struct {
		pred string
		t    database.Tuple
	}{{"e", database.Tuple{"x", "y"}}, {"e", database.Tuple{"y", "x"}}, {"p", database.Tuple{"x", "x"}}, {"p", database.Tuple{"y", "y"}}}
	for _, f := range written {
		if !out.Contains(f.pred, f.t) {
			t.Errorf("output lacks %s%v", f.pred, f.t)
		}
		if edb.Contains(f.pred, f.t) {
			t.Errorf("input gained %s%v", f.pred, f.t)
		}
	}
	if !out.Contains("p", database.Tuple{"a", "d"}) || edb.Contains("p", database.Tuple{"a", "d"}) {
		t.Error("derived p(a, d) must be in the output only")
	}

	// Goal on a predicate no rule defines returns the input's relation
	// through the layer; writing it must not reach the input either.
	rel, _, err := Goal(parser.MustProgram(`q(X) :- e(X, b).`), edb, "e", Options{})
	if err != nil {
		t.Fatal(err)
	}
	rel.Add(database.Tuple{"g", "h"})
	if !reflect.DeepEqual(captureInput(edb), before) {
		t.Fatal("writing Goal's relation changed the input")
	}
}

// TestEvalSharesInputIndexes pins the layered storage counters: an
// index the input already has is probed, not rebuilt, and only the
// slabs the evaluation wrote count.
func TestEvalSharesInputIndexes(t *testing.T) {
	edb := ownershipInput()
	_, stats, err := Eval(parser.MustProgram(`q(X) :- e(X, c).`), edb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.IndexBuilds != 0 || stats.IndexHits == 0 {
		t.Errorf("IndexBuilds = %d, IndexHits = %d: want the input's index probed, not rebuilt",
			stats.IndexBuilds, stats.IndexHits)
	}
	q := database.New()
	q.Add("q", database.Tuple{"b"})
	if want := q.StorageStats().SlabBytes; stats.SlabBytes != want {
		t.Errorf("SlabBytes = %d, want %d: only the derived q relation is owned", stats.SlabBytes, want)
	}
	// A mask the input lacks is built in the evaluation's layer.
	_, stats, err = Eval(parser.MustProgram(`q(X) :- e(b, X).`), edb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.IndexBuilds != 1 {
		t.Errorf("IndexBuilds = %d, want 1", stats.IndexBuilds)
	}
	if edb.Lookup("e").HasIndex(1) {
		t.Error("the index was built in the input")
	}
}
