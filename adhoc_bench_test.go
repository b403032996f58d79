// Ad-hoc evaluation over a served store. A server answers an ad-hoc
// query by evaluating its program over the maintained database, so the
// cost of that evaluation should follow the facts the query touches,
// not the size of the store. Run with
//
//	go test -run=NONE -bench=AdhocEval -benchmem .
//
// The store is built the way `datalog serve` builds it: eval.Maintain
// over an empty database, then the facts through Handle.Insert in
// batches, so it carries the same persistent indexes and support counts
// a served store does.
package datalogeq_test

import (
	"testing"

	"datalogeq/internal/database"
	"datalogeq/internal/eval"
	"datalogeq/internal/gen"
	"datalogeq/internal/parser"
)

// adhocServed is the maintained program: transitive closure over e.
const adhocServed = `
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
`

// adhocChainEdges is the chain length of the served forest: 10 e facts
// and 55 tc facts per chain.
const adhocChainEdges = 10

// adhocSizes are the served-store sizes in facts (e plus tc), about 1k,
// 100k and 1M, as chain counts.
var adhocSizes = []struct {
	name   string
	chains int
}{
	{"1k", 15},
	{"100k", 1540},
	{"1M", 15400},
}

// servedForest builds the served store over a forest of chains.
func servedForest(tb testing.TB, chains int) *database.DB {
	tb.Helper()
	h, _, err := eval.Maintain(parser.MustProgram(adhocServed), database.New(), eval.Options{Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	facts := gen.ChainForest(chains, adhocChainEdges)
	const batch = 1000
	for lo := 0; lo < len(facts); lo += batch {
		if _, err := h.Insert(facts[lo:min(lo+batch, len(facts))]); err != nil {
			tb.Fatal(err)
		}
	}
	return h.DB()
}

// adhocQuery is the one-hop query: everything reachable from the middle
// of chain 5, a single probe of the served tc index.
var adhocQuery = parser.MustProgram(`q(Y) :- tc(c5_4, Y).`)

// runAdhoc evaluates the query over db and checks its answer.
func runAdhoc(tb testing.TB, db *database.DB) {
	out, _, err := eval.Eval(adhocQuery, db, eval.Options{Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	if n := out.Lookup("q").Len(); n != adhocChainEdges-4 {
		tb.Fatalf("q has %d facts, want %d", n, adhocChainEdges-4)
	}
}

func BenchmarkAdhocEval(b *testing.B) {
	for _, sz := range adhocSizes {
		b.Run(sz.name, func(b *testing.B) {
			db := servedForest(b, sz.chains)
			b.ReportMetric(float64(db.FactCount()), "facts")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runAdhoc(b, db)
			}
		})
	}
}

// TestAdhocEvalAllocsFlat pins the benchmark's scaling as a count, not
// a wall time: the allocations of one ad-hoc query over the largest
// store stay within 2× of those over the smallest. Under -race the
// largest store is the 100k one: the detector's memory overhead would
// put the 1M store near a gigabyte, and allocation counts do not depend
// on it.
func TestAdhocEvalAllocsFlat(t *testing.T) {
	allocs := func(chains int) float64 {
		db := servedForest(t, chains)
		return testing.AllocsPerRun(5, func() { runAdhoc(t, db) })
	}
	smallest, largest := adhocSizes[0], adhocSizes[len(adhocSizes)-1]
	if raceDetector {
		largest = adhocSizes[1]
	}
	small, large := allocs(smallest.chains), allocs(largest.chains)
	t.Logf("allocs/op: %.0f at %s, %.0f at %s", small, smallest.name, large, largest.name)
	if large > 2*small {
		t.Errorf("ad-hoc query allocs grow with the store: %.0f at %s vs %.0f at %s",
			large, largest.name, small, smallest.name)
	}
}
