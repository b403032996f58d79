// Package evaltest is the reference evaluator the engine's differential
// tests compare against. It computes Q_Π(D) = ∪_i Q^i_Π(D) (paper §2.1)
// the slowest obvious way: naive rounds in which every rule, in program
// order, is matched against the whole database as it stood at the start
// of the round by nested loops over the rows of its body atoms in
// textual order. Head variables the body leaves unbound range over the
// active domain, the constants of the input database and the program.
//
// It shares no code with the engine's compiler, planner or executor:
// only the storage types of internal/database and the syntax of
// internal/ast. Import it from _test.go files only; repolint's testonly
// pass reports any other importer.
package evaltest

import (
	"errors"

	"datalogeq/internal/ast"
	"datalogeq/internal/database"
)

// ErrTooLarge reports that the fixpoint has more derived facts than the
// limit Eval was given.
var ErrTooLarge = errors.New("evaltest: fixpoint exceeds the fact limit")

// Result is a reference evaluation's outcome.
type Result struct {
	// DB holds the input facts plus every derived fact.
	DB *database.DB
	// Rounds counts naive rounds, including the last one, which derives
	// nothing new.
	Rounds int
	// Firings counts head instantiations: one per complete body match
	// and active-domain assignment to unbound head variables, summed
	// over every round.
	Firings int
	// Derived counts the distinct facts added to the input database.
	Derived int
	// Rows[r][k] counts the partial matches rule r's body had after its
	// k-th atom (textual order), summed over every round: the
	// intermediate rows of a left-to-right join.
	Rows [][]uint64
}

// Eval computes prog's least fixpoint over edb, which it does not
// modify. maxFacts > 0 bounds the derived facts: once a round takes
// Derived past it, Eval returns the partial result with ErrTooLarge.
func Eval(prog *ast.Program, edb *database.DB, maxFacts int) (*Result, error) {
	res := &Result{DB: edb.Clone(), Rows: make([][]uint64, len(prog.Rules))}
	for i, r := range prog.Rules {
		res.Rows[i] = make([]uint64, len(r.Body))
	}
	domain := activeDomain(prog, edb)
	type fact struct {
		pred string
		row  database.Row
	}
	for {
		res.Rounds++
		// Every rule sees the database as it stood at the round start.
		size := make(map[string]int)
		for _, p := range res.DB.Preds() {
			size[p] = res.DB.Lookup(p).Len()
		}
		var heads []fact
		for i, r := range prog.Rules {
			m := matcher{db: res.DB, size: size, rule: r, rows: res.Rows[i], env: map[string]uint32{}}
			m.match(0, func() {
				for _, row := range m.heads(domain) {
					res.Firings++
					heads = append(heads, fact{r.Head.Pred, row})
				}
			})
		}
		grew := false
		for _, h := range heads {
			if res.DB.AddRow(h.pred, h.row) {
				res.Derived++
				grew = true
			}
		}
		if maxFacts > 0 && res.Derived > maxFacts {
			return res, ErrTooLarge
		}
		if !grew {
			return res, nil
		}
	}
}

// matcher enumerates one rule's body matches by nested loops.
type matcher struct {
	db   *database.DB
	size map[string]int
	rule ast.Rule
	rows []uint64
	env  map[string]uint32
}

// match extends the current binding through body atoms k.. and calls
// found once per complete match.
func (m *matcher) match(k int, found func()) {
	if k == len(m.rule.Body) {
		found()
		return
	}
	a := m.rule.Body[k]
	rel := m.db.Lookup(a.Pred)
	if rel == nil {
		return
	}
	for i := 0; i < m.size[a.Pred]; i++ {
		var bound []string
		ok := true
		for pos, t := range a.Args {
			v := rel.At(i, pos)
			if t.Kind == ast.Const {
				ok = v == database.Intern(t.Name)
			} else if w, seen := m.env[t.Name]; seen {
				ok = v == w
			} else {
				m.env[t.Name] = v
				bound = append(bound, t.Name)
			}
			if !ok {
				break
			}
		}
		if ok {
			m.rows[k]++
			m.match(k+1, found)
		}
		for _, name := range bound {
			delete(m.env, name)
		}
	}
}

// heads instantiates the rule head under the current binding, once per
// assignment of domain constants to the head variables the body left
// unbound.
func (m *matcher) heads(domain []uint32) []database.Row {
	out := []database.Row{nil}
	appendAll := func(v func(database.Row) uint32) {
		for j, row := range out {
			out[j] = append(row, v(row))
		}
	}
	free := map[string]int{} // unbound head variable -> its first position
	for _, t := range m.rule.Head.Args {
		if t.Kind == ast.Const {
			id := database.Intern(t.Name)
			appendAll(func(database.Row) uint32 { return id })
			continue
		}
		if w, ok := m.env[t.Name]; ok {
			appendAll(func(database.Row) uint32 { return w })
			continue
		}
		if p, ok := free[t.Name]; ok {
			appendAll(func(row database.Row) uint32 { return row[p] })
			continue
		}
		if len(domain) == 0 {
			return nil
		}
		free[t.Name] = len(out[0])
		var next []database.Row
		for _, row := range out {
			for _, d := range domain {
				next = append(next, append(row[:len(row):len(row)], d))
			}
		}
		out = next
	}
	return out
}

// activeDomain lists every constant of edb and prog.
func activeDomain(prog *ast.Program, edb *database.DB) []uint32 {
	seen := map[uint32]bool{}
	var out []uint32
	add := func(id uint32) {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	for _, p := range edb.Preds() {
		rel := edb.Lookup(p)
		for i := 0; i < rel.Len(); i++ {
			for c := 0; c < rel.Arity(); c++ {
				add(rel.At(i, c))
			}
		}
	}
	for _, r := range prog.Rules {
		for _, a := range append([]ast.Atom{r.Head}, r.Body...) {
			for _, t := range a.Args {
				if t.Kind == ast.Const {
					add(database.Intern(t.Name))
				}
			}
		}
	}
	return out
}
