// Command experiments regenerates every experiment of EXPERIMENTS.md in
// one run and prints the report: example verdicts, tree reproductions,
// automata-size sweeps, unfolding-blowup tables, lower-bound encoding
// sizes, and evaluation-substrate comparisons. Wall-clock numbers vary
// by machine; the shapes are the claims.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"datalogeq/internal/core"
	"datalogeq/internal/database"
	"datalogeq/internal/eval"
	"datalogeq/internal/expansion"
	"datalogeq/internal/gen"
	"datalogeq/internal/nonrec"
	"datalogeq/internal/tm"
)

func main() {
	e1()
	e2()
	e3()
	e4()
	e5e6()
	e7()
	e8()
	e9()
	e10()
}

func section(id, title string) {
	fmt.Printf("\n══ %s — %s ══\n", id, title)
}

func timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

func e1() {
	section("E1", "Example 1.1: equivalence to nonrecursive rewritings")
	res, err := core.EquivalentToNonrecursive(gen.Example11Trendy(), "buys", gen.Example11TrendyNR(), core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Π₁ (trendy): equivalent = %v\n", res.Equivalent)
	res, err = core.EquivalentToNonrecursive(gen.Example11Knows(), "buys", gen.Example11KnowsNR(), core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Π₂ (knows):  equivalent = %v (%s)\n", res.Equivalent, res.Failure)
	if res.Witness != nil {
		fmt.Printf("  witness expansion: %s\n", res.Witness.Query)
	}
}

func e2() {
	section("E2", "Figures 1–2: unfolding expansion trees for transitive closure")
	trees := expansion.Unfoldings(gen.TransitiveClosure(), "p", 3, 0)
	for _, tr := range trees {
		if tr.Depth() == 3 {
			fmt.Print(tr)
			fmt.Printf("expansion: %s\n", tr.Query())
		}
	}
	n := len(expansion.ProofTrees(gen.TransitiveClosure(), "p", 2, 0))
	fmt.Printf("proof trees of height <= 2 over var(Π): %d (= 36·7)\n", n)
}

func e3() {
	section("E3", "Theorem 5.12: containment in paths <= k (automata sizes)")
	fmt.Printf("%3s %9s %13s %13s %10s\n", "k", "letters", "ptree-states", "theta-states", "time")
	for k := 1; k <= 6; k++ {
		var res core.Result
		var err error
		d := timed(func() {
			res, err = core.ContainsUCQ(gen.TransitiveClosure(), "p", gen.TCPathsUCQ(k), core.Options{})
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%3d %9d %13d %13d %10s  contained=%v witness-height=%d\n",
			k, res.Stats.Letters, res.Stats.PtreeStates, res.Stats.ThetaStates,
			d.Round(time.Millisecond), res.Contained, res.Witness.Tree.Depth())
	}
}

func e4() {
	section("E4", "linear programs: tree vs word procedure")
	q := gen.TCPathsUCQ(3)
	var tRes, wRes core.Result
	var err error
	dt := timed(func() { tRes, err = core.ContainsUCQ(gen.TransitiveClosure(), "p", q, core.Options{}) })
	if err != nil {
		log.Fatal(err)
	}
	dw := timed(func() { wRes, err = core.ContainsUCQLinear(gen.TransitiveClosure(), "p", q, core.Options{}) })
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tree: contained=%v in %s; word: contained=%v in %s (verdicts agree: %v)\n",
		tRes.Contained, dt.Round(time.Millisecond), wRes.Contained, dw.Round(time.Millisecond),
		tRes.Contained == wRes.Contained)
}

func e5e6() {
	section("E5/E6", "§6 unfolding blowup (Examples 6.1, 6.2, 6.3, 6.6)")
	fmt.Printf("%-8s %3s %9s %12s %10s\n", "family", "n", "disjuncts", "totalAtoms", "maxAtoms")
	for n := 1; n <= 5; n++ {
		s, err := nonrec.UnfoldStats(gen.DistProgram(n), gen.DistGoal(n))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %3d %9d %12d %10d\n", "dist", n, s.Disjuncts, s.TotalAtoms, s.MaxAtoms)
	}
	for n := 1; n <= 3; n++ {
		s, err := nonrec.UnfoldStats(gen.DistLeProgram(n), fmt.Sprintf("distle%d", n))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %3d %9d %12d %10d\n", "distle", n, s.Disjuncts, s.TotalAtoms, s.MaxAtoms)
	}
	for n := 1; n <= 3; n++ {
		s, err := nonrec.UnfoldStats(gen.EqualProgram(n), fmt.Sprintf("equal%d", n))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %3d %9d %12d %10d\n", "equal", n, s.Disjuncts, s.TotalAtoms, s.MaxAtoms)
	}
	for n := 2; n <= 8; n += 2 {
		s, err := nonrec.UnfoldStats(gen.WordProgram(n), fmt.Sprintf("word%d", n))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %3d %9d %12d %10d\n", "word", n, s.Disjuncts, s.TotalAtoms, s.MaxAtoms)
	}
}

func lbMachine() *tm.Machine {
	return &tm.Machine{
		States:      []string{"s0", "s1", "qa"},
		TapeSymbols: []string{"_", "1"},
		Blank:       "_",
		Start:       "s0",
		Accept:      []string{"qa"},
		Transitions: []tm.Transition{
			{State: "s0", Read: "_", Write: "1", Move: tm.Right, NewState: "s1"},
			{State: "s1", Read: "_", Write: "_", Move: tm.Stay, NewState: "qa"},
		},
	}
}

func e7() {
	section("E7", "lower-bound encodings (§5.3 linear, §6 doubly-exponential)")
	m := lbMachine()
	fmt.Printf("%3s %12s %12s %12s %12s\n", "n", "§5.3 rules", "§5.3 qrys", "§6 Π rules", "§6 Π′ rules")
	for n := 1; n <= 4; n++ {
		e53, err := tm.Encode53(m, n)
		if err != nil {
			log.Fatal(err)
		}
		e6enc, err := tm.Encode6(m, n)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%3d %12d %12d %12d %12d\n",
			n, e53.Stats().Rules, e53.Stats().ErrorQueries, e6enc.Stats().Rules, e6enc.Stats().ErrorQueries)
	}
	// Semantic separation at n = 1.
	e53, _ := tm.Encode53(m, 1)
	run, _ := m.AcceptingRun(2)
	db, err := e53.ComputationDB(run)
	if err != nil {
		log.Fatal(err)
	}
	rel, _, err := eval.Goal(e53.Program, db, tm.Goal, eval.Options{})
	if err != nil {
		log.Fatal(err)
	}
	caught, err := e53.Errors.Holds(db, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("accepting computation DB: Π derives C = %v, Θ fires = %v  (Π ⊄ Θ as M accepts)\n",
		rel.Len() > 0, caught)
}

func e8() {
	section("E8", "converse direction: path-k ⊆ TC via canonical databases")
	for k := 2; k <= 16; k *= 2 {
		var ok bool
		var err error
		d := timed(func() { ok, err = core.CQContainedInProgram(gen.TCPathCQ(k), gen.TransitiveClosure(), "p") })
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("k=%2d contained=%v in %s\n", k, ok, d.Round(time.Microsecond))
	}
}

func e9() {
	section("E9", "evaluation substrate: semi-naive transitive closure")
	rng := rand.New(rand.NewSource(1))
	for _, w := range []struct {
		name string
		db   *database.DB
	}{
		{"chain-60", gen.ChainGraph(60)},
		{"random-40x120", gen.RandomGraph(rng, 40, 120)},
	} {
		var stats eval.Stats
		d := timed(func() {
			var err error
			if _, stats, err = eval.Eval(gen.TransitiveClosure(), w.db, eval.Options{}); err != nil {
				log.Fatal(err)
			}
		})
		fmt.Printf("%-14s %d rounds, %d firings, %s\n", w.name, stats.Iterations, stats.Firings, d.Round(time.Microsecond))
	}
}

func e10() {
	section("E10", "Theorem 6.5 end-to-end + bounded rewriting")
	res, err := core.EquivalentToNonrecursive(gen.Example11Trendy(), "buys", gen.Example11TrendyNR(), core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trendy ≡ NR: %v (letters %d, ptree states %d, theta states %d, disjuncts %d)\n",
		res.Equivalent, res.Stats.Letters, res.Stats.PtreeStates, res.Stats.ThetaStates, res.UnfoldedDisjuncts)
	u, k, ok, err := core.BoundedRewriting(gen.Example11Trendy(), "buys", 4, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bounded-rewriting search: bounded=%v at height %d with %d disjuncts\n", ok, k, u.Size())
	_, _, ok, err = core.BoundedRewriting(gen.TransitiveClosure(), "p", 3, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("transitive closure bounded within height 3: %v\n", ok)
}
