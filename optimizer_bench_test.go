// Benchmark families for the SCC-stratified schedule on multi-stratum
// programs. Run with
//
//	go test -run=NONE -bench=OptimizedEval .
//
// Every family evaluates the three-stratum LayeredTC program — a
// recursive transitive closure, a join layer over it, and a top copy —
// over one graph shape. The schedule fixpoints tc first and then runs
// each nonrecursive layer once, so the join layer never re-fires
// against tc's per-round deltas. The "stratified" lane name is kept
// from when a global round loop ran beside it, so the figures compare
// with BENCH_PR7.json; pipe the output through cmd/benchjson to extend
// that trajectory.
package datalogeq_test

import (
	"math/rand"
	"testing"

	"datalogeq/internal/database"
	"datalogeq/internal/eval"
	"datalogeq/internal/gen"
)

func BenchmarkOptimizedEval(b *testing.B) {
	prog := gen.LayeredTC()
	rng := rand.New(rand.NewSource(7))
	workloads := []struct {
		name string
		db   *database.DB
	}{
		{"chain100", gen.ChainGraph(100)},
		{"grid8x8", gen.GridGraph(8, 8)},
		{"star48", gen.StarGraph(48)},
		{"random60x240", gen.RandomGraph(rng, 60, 240)},
	}
	for _, w := range workloads {
		b.Run(w.name+"/stratified", func(b *testing.B) {
			var stats eval.Stats
			for i := 0; i < b.N; i++ {
				_, s, err := eval.Eval(prog, w.db, eval.Options{Workers: 0})
				if err != nil {
					b.Fatal(err)
				}
				stats = s
			}
			b.ReportMetric(float64(stats.Derived), "derived")
			b.ReportMetric(float64(stats.Iterations), "rounds")
			b.ReportMetric(float64(stats.Firings), "firings")
		})
	}
}
