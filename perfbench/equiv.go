package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"datalogeq/internal/ast"
	"datalogeq/internal/core"
	"datalogeq/internal/gen"
	"datalogeq/internal/nonrec"
	"datalogeq/internal/ucq"
)

const (
	// equivWorkers is core's worker count: the benchmark process has the
	// two cores to itself.
	equivWorkers = 2
	// universeProbes is how often a traced run builds each program's
	// universe.
	universeProbes = 5
	// suiteBuilds is how often set-up builds the suite. One build takes
	// about 0.1 ms, so the median of a few builds would be set by timer
	// and scheduler noise; the median of many is the warm build cost.
	suiteBuilds = 201
)

// decision is one instance of the paper's suite with the verdict
// EXPERIMENTS.md records for it.
type decision struct {
	name  string
	class string // span name: the core entry point it calls
	want  bool
	prog  *ast.Program
	goal  string
	run   func(core.Options) (verdict core.Verdict, holds bool, st core.Stats, disjuncts int, err error)
}

const (
	treeCall      = "core.ContainsUCQ"
	wordCall      = "core.ContainsUCQLinear"
	canonicalCall = "core.CQContainedInProgram"
	equivCall     = "core.EquivalentToNonrecursive"
)

// buildSuite builds the instances: E1 (Π₁ ≡ its rewriting, Π₂ ≢),
// E3 TC ⊆ paths≤k for k = 1..4 and trendy ⊆ its unfolding, E4 k = 3 on
// word automata, E8 path-k ⊆ TC for k = 2, 4, 8, 16, and E10.
func buildSuite() ([]decision, error) {
	tc := gen.TransitiveClosure()
	trendy, trendyNR := gen.Example11Trendy(), gen.Example11TrendyNR()
	knows, knowsNR := gen.Example11Knows(), gen.Example11KnowsNR()
	equiv := func(name string, p *ast.Program, nr *ast.Program, want bool) decision {
		return decision{name: name, class: equivCall, want: want, prog: p, goal: "buys",
			run: func(o core.Options) (core.Verdict, bool, core.Stats, int, error) {
				r, err := core.EquivalentToNonrecursive(p, "buys", nr, o)
				return r.Verdict, r.Equivalent, r.Stats, r.UnfoldedDisjuncts, err
			}}
	}
	contains := func(name, call string, p *ast.Program, goal string, q ucq.UCQ, want bool) decision {
		f := core.ContainsUCQ
		if call == wordCall {
			f = core.ContainsUCQLinear
		}
		return decision{name: name, class: call, want: want, prog: p, goal: goal,
			run: func(o core.Options) (core.Verdict, bool, core.Stats, int, error) {
				r, err := f(p, goal, q, o)
				return r.Verdict, r.Contained, r.Stats, 0, err
			}}
	}
	suite := []decision{
		equiv("E1 trendy ≡ rewriting", trendy, trendyNR, true),
		equiv("E1 knows ≢ rewriting", knows, knowsNR, false),
	}
	for k := 1; k <= 4; k++ {
		suite = append(suite, contains(fmt.Sprintf("E3 TC ⊆ paths≤%d", k), treeCall, tc, "p", gen.TCPathsUCQ(k), false))
	}
	unfolded, err := nonrec.Unfold(trendyNR, "buys")
	if err != nil {
		return nil, err
	}
	suite = append(suite, contains("E3 trendy ⊆ unfolding", treeCall, trendy, "buys", unfolded, true))
	suite = append(suite, contains("E4 TC ⊆ paths≤3 (word)", wordCall, tc, "p", gen.TCPathsUCQ(3), false))
	for k := 2; k <= 16; k *= 2 {
		theta := gen.TCPathCQ(k)
		suite = append(suite, decision{name: fmt.Sprintf("E8 path-%d ⊆ TC", k), class: canonicalCall, want: true, prog: tc, goal: "p",
			run: func(core.Options) (core.Verdict, bool, core.Stats, int, error) {
				ok, err := core.CQContainedInProgram(theta, tc, "p")
				v := core.No
				if ok {
					v = core.Yes
				}
				return v, ok, core.Stats{}, 0, err
			}})
	}
	suite = append(suite, equiv("E10 Thm 6.5 trendy ≡ NR₁", trendy, trendyNR, true))
	return suite, nil
}

// passStats are one pass's summed automata sizes.
type passStats struct {
	ptree, theta, states, disjuncts int
	letters                         map[*ast.Program]int // alphabet size per program
}

// runPass decides every instance once, in a seeded order, timing each
// decision into ph by its class and checking its verdict.
func runPass(suite []decision, rng *rand.Rand, tr *tracer, ph *phase) (passStats, error) {
	ps := passStats{letters: map[*ast.Program]int{}}
	opts := core.Options{Workers: equivWorkers}
	for _, i := range rng.Perm(len(suite)) {
		d := suite[i]
		var v core.Verdict
		var holds bool
		var st core.Stats
		var disj int
		var err error
		dur := tr.call(d.class, func() { v, holds, st, disj, err = d.run(opts) })
		if err != nil {
			return ps, fmt.Errorf("%s: %w", d.name, err)
		}
		o := okAnswer
		if v == core.Unknown {
			o = unknownReply
		} else if holds != d.want {
			o = wrongAnswer
			fmt.Fprintf(os.Stderr, "perfbench: %s: verdict %v, EXPERIMENTS.md records %v\n", d.name, holds, d.want)
		}
		ph.record(o)
		if o == okAnswer {
			cls := "decide"
			if d.class == canonicalCall {
				cls = "canonical"
			}
			ph.class(cls).add(dur)
		}
		if d.class == treeCall {
			ps.ptree += st.PtreeStates
			ps.theta += st.ThetaStates
		}
		ps.states += st.PtreeStates + st.ThetaStates
		ps.disjuncts += disj
		ps.letters[d.prog] = max(ps.letters[d.prog], st.Letters)
	}
	return ps, nil
}

// equivPhase is one timed phase of whole suite passes.
type equivPhase struct {
	phase
	passes int
	stats  passStats
	allocs []float64 // mallocs per decision, one value per pass
	rss    []float64 // the process's peak RSS during each pass, MiB
}

// resetPeakRSS restarts the process's VmHWM from its current RSS, so the
// next reading is the peak since this call.
func resetPeakRSS() error { return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

func runPasses(suite []decision, seed int64, d time.Duration, tr *tracer) (equivPhase, error) {
	ph := equivPhase{phase: phase{lat: map[string]*latencies{}}}
	rng := rand.New(rand.NewSource(seed))
	start := time.Now()
	for time.Since(start) < d {
		if err := resetPeakRSS(); err != nil {
			return ph, err
		}
		m0 := mallocs()
		ps, err := runPass(suite, rng, tr, &ph.phase)
		if err != nil {
			return ph, err
		}
		rss, err := vmHWM(os.Getpid())
		if err != nil {
			return ph, err
		}
		ph.rss = append(ph.rss, rss)
		ph.allocs = append(ph.allocs, float64(mallocs()-m0)/float64(len(suite)))
		ph.stats = ps
		ph.passes++
	}
	ph.elapsed = time.Since(start)
	return ph, nil
}

func runEquiv(cfg *config) (*runResult, error) {
	// Set-up builds the suite's instances; setup_s is the median build
	// time. One untimed warm-up pass follows, so the timed phase starts
	// with the runtime's caches and heap grown.
	var suite []decision
	var setups []time.Duration
	for i := 0; i < suiteBuilds; i++ {
		t0 := time.Now()
		s, err := buildSuite()
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
		suite = s
	}
	warm := phase{lat: map[string]*latencies{}}
	if _, err := runPass(suite, rand.New(rand.NewSource(cfg.seed)), nil, &warm); err != nil {
		return nil, err
	}
	ph, err := runPasses(suite, cfg.seed, cfg.duration(), nil)
	if err != nil {
		return nil, err
	}
	res := &runResult{op: "decide", total: ph.tally, checked: true}
	res.e2e.add("setup_s", medianDur(setups), "s")
	res.e2e.add("ops_per_s", ph.opsPerSec(), "ops/s")
	res.e2e.addLatency("decide", ph.class("decide"))
	res.e2e.addLatency("canonical", ph.class("canonical"))
	res.e2e.add("passes", float64(ph.passes), "count")
	res.e2e.add("failed_frac", failedFrac(ph.tally), "ratio")
	res.e2e.add("peak_rss_mb", median(ph.rss), "MiB")
	if !cfg.trace {
		return res, nil
	}

	tr := newTracer()
	p, done := probeTracer(tr, "probe.equiv-paper")
	tp, err := runPasses(suite, cfg.seed, cfg.duration(), p)
	if err != nil {
		return nil, err
	}
	res.total.merge(tp.tally)
	// core.NewUniverse of each distinct program in the suite.
	seen := map[*ast.Program]bool{}
	letters := 0
	for _, d := range suite {
		if seen[d.prog] {
			continue
		}
		seen[d.prog] = true
		letters += tp.stats.letters[d.prog]
		for i := 0; i < universeProbes; i++ {
			p.call("core.NewUniverse", func() { _, err = core.NewUniverse(d.prog, d.goal) })
			if err != nil {
				return nil, err
			}
		}
	}
	done()
	res.layers = map[string]float64{
		"trace.overhead_frac": overhead(&ph.phase, &tp.phase),
		"core.universe_ms":    p.medianMs("core.NewUniverse"),
		"core.letters":        float64(letters),
		"core.tree_ms":        p.medianMs(treeCall),
		"core.word_ms":        p.medianMs(wordCall),
		"core.canonical_ms":   p.medianMs(canonicalCall),
		"core.equiv_ms":       p.medianMs(equivCall),
		"core.ptree_states":   float64(tp.stats.ptree),
		"core.theta_states":   float64(tp.stats.theta),
		"core.states":         float64(tp.stats.states),
		"nonrec.disjuncts":    float64(tp.stats.disjuncts),
		"core.allocs":         median(tp.allocs),
	}
	return res, tr.write(cfg.spans)
}
