package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// The served data set: disjoint chains cK_0 → cK_1 → … → cK_10, one
// e fact per edge. Transitive closure over a chain of chainEdges edges
// has chainEdges·(chainEdges+1)/2 rows, so 10,000 chains serve 100k e
// rows and 550k tc rows.
const (
	chainEdges = 10
	batchFacts = 1000
	// servedProgram is the maintained program. hot is a view over the
	// one chain the update stream never touches, so its answer is fixed.
	servedProgram = "tc(X, Y) :- e(X, Y).\ntc(X, Y) :- e(X, Z), tc(Z, Y).\nhot(Y) :- tc(c0_0, Y).\n"
	hotGoal       = "hot"
)

func node(k, j int) string { return fmt.Sprintf("c%d_%d", k, j) }

// edge is the fact text of chain k's j-th edge, cK_J → cK_{J+1}.
func edge(k, j int) string { return fmt.Sprintf("e(%s, %s)", node(k, j), node(k, j+1)) }

// forest is the seeded data set: the edges in a seeded order, cut into
// setup batches of batchFacts facts, each rendered as fact-list text.
type forest struct {
	chains  int
	batches []string
}

func newForest(seed int64, chains int) *forest {
	type kj struct{ k, j int }
	all := make([]kj, 0, chains*chainEdges)
	for k := 0; k < chains; k++ {
		for j := 0; j < chainEdges; j++ {
			all = append(all, kj{k, j})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(all), func(a, b int) { all[a], all[b] = all[b], all[a] })
	f := &forest{chains: chains}
	for lo := 0; lo < len(all); lo += batchFacts {
		hi := min(lo+batchFacts, len(all))
		parts := make([]string, 0, hi-lo)
		for _, e := range all[lo:hi] {
			parts = append(parts, edge(e.k, e.j))
		}
		f.batches = append(f.batches, strings.Join(parts, ", ")+".")
	}
	return f
}

// facts is the number of base e facts.
func (f *forest) facts() int { return f.chains * chainEdges }

// hotAnswer is the expected `query hot` reply: c0_1 … c0_10.
func hotAnswer() []string {
	out := make([]string, 0, chainEdges)
	for j := 1; j <= chainEdges; j++ {
		out = append(out, fmt.Sprintf("hot(%s).", node(0, j)))
	}
	return sortedStrings(out)
}

// adhoc is one ad-hoc query: everything reachable from cK_J.
type adhoc struct{ k, j int }

func (a adhoc) program() string { return fmt.Sprintf("q(Y) :- tc(%s, Y).", node(a.k, a.j)) }

// answer is the expected reply: q(cK_{J+1}) … q(cK_10).
func (a adhoc) answer() []string {
	out := make([]string, 0, chainEdges-a.j)
	for j := a.j + 1; j <= chainEdges; j++ {
		out = append(out, fmt.Sprintf("q(%s).", node(a.k, j)))
	}
	return sortedStrings(out)
}

// clientRNG is client c's private request-sequence generator: the same
// seed replays the same requests, traced or not.
func clientRNG(seed int64, c int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(c) + 1))
}

func nextAdhoc(rng *rand.Rand, chains int) adhoc {
	return adhoc{k: rng.Intn(chains), j: rng.Intn(chainEdges)}
}

// nextUpdate picks the edge client c retracts and re-inserts next. The
// clients split the chains by parity and never touch chain 0, so their
// mutations never collide and hot never changes.
func nextUpdate(rng *rand.Rand, chains, c int) string {
	n := (chains - c) / 2 // chains K ≥ 1 with (K-1) % 2 == c
	k := 1 + c + 2*rng.Intn(n)
	return edge(k, rng.Intn(chainEdges))
}

// fixpoint is the expected sorted reply of `query e` and `query tc` on
// the unmodified forest.
func fixpoint(chains int) (e, tc []string) {
	for k := 0; k < chains; k++ {
		for i := 0; i < chainEdges; i++ {
			e = append(e, edge(k, i)+".")
			for j := i + 1; j <= chainEdges; j++ {
				tc = append(tc, fmt.Sprintf("tc(%s, %s).", node(k, i), node(k, j)))
			}
		}
	}
	return sortedStrings(e), sortedStrings(tc)
}
