// Planner benchmark families: evaluation under the cost-based join
// planner. Run with
//
//	go test -run=NONE -bench=PlannerEval .
//
// The star-join family is the headline: its selective atom is textually
// last, so a left-to-right order would enumerate keys/selKeys times
// more intermediate rows than the planned order (the textual-order
// baseline lives in internal/evaltest, and
// TestStarJoinPlannedBeatsFixedOrder pins the ratio structurally).
// Everything runs single-worker to keep the measurement free of
// scheduling noise; pipe through cmd/benchjson for BENCH_PR6.json.
package datalogeq_test

import (
	"math/rand"
	"testing"

	"datalogeq/internal/ast"
	"datalogeq/internal/database"
	"datalogeq/internal/eval"
	"datalogeq/internal/gen"
)

func BenchmarkPlannerEval(b *testing.B) {
	tc := gen.TransitiveClosure()
	rng := rand.New(rand.NewSource(1))
	// Sized so the join work dwarfs Eval's per-call fixed costs (index
	// builds, planning): the planned order touches ~selKeys*fanout^dims
	// intermediate rows, a textual order ~keys*fanout^dims.
	starProg, starDB := gen.StarJoin(3, 100, 20, 2)
	workloads := []struct {
		name string
		prog *ast.Program
		db   *database.DB
	}{
		{"chain60", tc, gen.ChainGraph(60)},
		{"random40x120", tc, gen.RandomGraph(rng, 40, 120)},
		{"grid10x10", tc, gen.GridGraph(10, 10)},
		{"star3x100", starProg, starDB},
	}
	for _, w := range workloads {
		b.Run(w.name+"/planned", func(b *testing.B) {
			var stats eval.Stats
			for i := 0; i < b.N; i++ {
				_, s, err := eval.Eval(w.prog, w.db, eval.Options{Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				stats = s
			}
			b.ReportMetric(float64(stats.Derived), "derived")
			if total := stats.PlanCacheHits + stats.PlanCacheMisses; total > 0 {
				b.ReportMetric(float64(stats.PlanCacheHits)/float64(total), "cache-hit-rate")
			}
		})
	}
}
