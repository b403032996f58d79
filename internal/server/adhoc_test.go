package server

// Ad-hoc evaluation over the served store. eval.Eval evaluates into a
// copy-on-write layer over the live database, so queries running
// concurrently under the read lock share the store's slabs and indexes
// and must never write them — including a query that needs an index
// the store lacks, and one whose head is a served predicate. Run these
// under -race.

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"datalogeq/internal/ast"
	"datalogeq/internal/database"
	"datalogeq/internal/eval"
	"datalogeq/internal/gen"
	"datalogeq/internal/parser"
)

const (
	adhocChains = 12
	adhocEdges  = 6
)

// servedChains builds a server over tcSrc holding a forest of chains,
// loaded through Apply the way clients load it.
func servedChains(t *testing.T, workers int) (*Server, []ast.Atom) {
	t.Helper()
	s, err := New(Config{Program: parser.MustProgram(tcSrc), Workers: workers, MaxInflight: 8, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	facts := gen.ChainForest(adhocChains, adhocEdges)
	for lo := 0; lo < len(facts); lo += 25 {
		res, err := s.Apply(context.Background(), "", database.OpInsert, facts[lo:min(lo+25, len(facts))], "", 0, 0)
		if err != nil || !res.Applied {
			t.Fatalf("load: %+v, %v", res, err)
		}
	}
	return s, facts
}

// storeState is everything an ad-hoc query must leave unchanged in the
// served store.
type storeState struct {
	facts   int
	epoch   uint64
	masks   map[string][]uint64
	storage database.StorageStats
	text    string
}

func captureStore(db *database.DB) storeState {
	st := storeState{facts: db.FactCount(), epoch: db.StatsEpoch(), masks: map[string][]uint64{}, storage: db.StorageStats(), text: db.String()}
	for _, p := range db.Preds() {
		st.masks[p] = db.Lookup(p).IndexMasks()
	}
	return st
}

// fromScratchLines answers an ad-hoc program the long way: the served
// program's fixpoint is computed from the base facts in a fresh
// database, deep-copied, and the ad-hoc program evaluated over the copy.
func fromScratchLines(t *testing.T, adhoc string, facts []ast.Atom, goal string) []string {
	t.Helper()
	db := database.New()
	for _, a := range facts {
		if err := db.AddAtom(a); err != nil {
			t.Fatal(err)
		}
	}
	served, _, err := eval.Eval(parser.MustProgram(tcSrc), db, eval.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := eval.Eval(parser.MustProgram(adhoc), served.Clone(), eval.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return factLines(out, goal)
}

// adhocCase is one ad-hoc query and its expected answer.
type adhocCase struct {
	name, goal, program string
	want                []string
}

func adhocCases(t *testing.T, facts []ast.Atom) []adhocCase {
	node := func(k, j int) string { return fmt.Sprintf("c%d_%d", k, j) }
	var into, from []string
	for j := 0; j < 4; j++ {
		into = append(into, fmt.Sprintf("q(%s).", node(5, j)))
	}
	for j := 2; j <= adhocEdges; j++ {
		from = append(from, fmt.Sprintf("q(%s).", node(3, j)))
	}
	// d(X, X) ranges over the active domain: the store's constants and
	// the program's, c99 included.
	unsafe := "d(X, X) :- .\nd(X, Y) :- e(X, Y).\nlabel(X, c99) :- e(X, Y).\n"
	return []adhocCase{
		// Probes tc on its second column: the store has no such index.
		{"missing-index", "q", "q(X) :- tc(X, c5_4).", into},
		// Probes the store's own tc index.
		{"shared-index", "q", "q(Y) :- tc(c3_1, Y).", from},
		// Writes a served predicate: the layer copies tc.
		{"served-head", "tc", "tc(X, Y) :- e(Y, X).", fromScratchLines(t, "tc(X, Y) :- e(Y, X).", facts, "tc")},
		// Unbound head variable: the domain comes from the store's
		// interned IDs and must give the from-scratch fact set.
		{"unsafe", "d", unsafe, fromScratchLines(t, unsafe, facts, "d")},
	}
}

func TestAdhocEvalNeverWritesServedStore(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			s, facts := servedChains(t, workers)
			cases := adhocCases(t, facts)
			if s.h.DB().Lookup("tc").HasIndex(2) {
				t.Fatal("the missing-index case needs a tc mask the store lacks")
			}
			before := captureStore(s.h.DB())

			const clients, rounds = 4, 3
			errs := make(chan error, clients*rounds*len(cases))
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						for i := range cases {
							q := cases[(i+c)%len(cases)]
							res, err := s.Query(context.Background(), "", q.goal, q.program, 0)
							switch {
							case err != nil:
								errs <- fmt.Errorf("%s: %v", q.name, err)
							case res.Verdict != "complete":
								errs <- fmt.Errorf("%s: verdict %s (%s)", q.name, res.Verdict, res.Reason)
							case !reflect.DeepEqual(res.Tuples, q.want):
								errs <- fmt.Errorf("%s: got %d tuples %s\nwant %d tuples %s", q.name,
									len(res.Tuples), strings.Join(res.Tuples, " "), len(q.want), strings.Join(q.want, " "))
							}
						}
					}
				}(c)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if after := captureStore(s.h.DB()); !reflect.DeepEqual(after, before) {
				t.Errorf("ad-hoc queries changed the served store:\nbefore %+v\nafter  %+v", before.storage, after.storage)
			}
		})
	}
}
