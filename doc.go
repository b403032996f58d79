// Package datalogeq is a reproduction of Chaudhuri & Vardi, "On the
// Equivalence of Recursive and Nonrecursive Datalog Programs" (PODS
// 1992; JCSS 54(1), 1997): a complete Datalog containment and
// equivalence engine.
//
// The implementation lives under internal/:
//
//   - internal/ast, internal/parser: Datalog syntax and analysis
//   - internal/database, internal/eval: the extensional store and
//     bottom-up evaluation (stratified, semi-naive); internal/evaltest
//     is the naive reference evaluator its differential tests use
//   - internal/cq, internal/ucq: conjunctive-query theory — containment
//     mappings, canonical databases, minimization, Sagiv–Yannakakis
//   - internal/expansion: expansion/unfolding/proof trees, the
//     connectedness relation, strong containment mappings
//   - internal/wordauto, internal/treeauto: word and tree automata with
//     Boolean operations, emptiness, and antichain containment
//   - internal/core: the paper's decision procedures (Propositions
//     5.9/5.10, Theorems 5.11/5.12, 6.4/6.5)
//   - internal/nonrec: unfolding and inlining of nonrecursive programs
//   - internal/tm: Turing-machine substrate and the §5.3/§6 lower-bound
//     encodings
//   - internal/gen: paper example families and random workloads
//
// Command-line tools are under cmd/ (datalog, equiv, lowerbound) and
// runnable examples under examples/. The benchmarks in bench_test.go
// regenerate every experiment indexed in EXPERIMENTS.md.
package datalogeq
