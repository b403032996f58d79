package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"datalogeq/internal/ast"
	"datalogeq/internal/database"
	"datalogeq/internal/eval"
	_ "datalogeq/internal/ivm" // registers the maintainer behind eval.Maintain
	"datalogeq/internal/parser"
	"datalogeq/internal/server"
	"datalogeq/internal/snapshot"
	"datalogeq/internal/wal"
)

// The traced run's in-process probes call each layer's public functions
// on the run's own inputs, inside spans, so every per-layer figure is a
// median over calls the workload also makes through the server.
const (
	adhocProbes  = 15 // the run's first ad-hoc queries
	readProbes   = 200
	updateProbes = 60 // the run's first retract/insert pairs, split over the clients
	cloneProbes  = 5
	openProbes   = 3
	ckptProbes   = 3
)

// perLayer are the metrics a --trace 1 run reports, as in
// BENCHMARK.json. A layer a workload does not exercise reports 0.
var perLayer = []struct{ name, unit string }{
	{"server.query_ms", "ms"},
	{"server.read_ms", "ms"},
	{"server.apply_insert_ms", "ms"},
	{"server.apply_retract_ms", "ms"},
	{"server.transport_ms", "ms"},
	{"server.shed", "count"},
	{"server.unknown", "count"},
	{"server.rebuilds", "count"},
	{"parser.program_us", "us"},
	{"parser.facts_us", "us"},
	{"eval.eval_ms", "ms"},
	{"eval.allocs", "count"},
	{"eval.firings", "count"},
	{"eval.derived", "count"},
	{"eval.iterations", "count"},
	{"eval.index_builds", "count"},
	{"eval.index_hits", "count"},
	{"plan.cache_misses", "count"},
	{"plan.replans", "count"},
	{"database.clone_ms", "ms"},
	{"database.rows", "count"},
	{"database.slab_mb", "MiB"},
	{"database.open_ms", "ms"},
	{"ivm.insert_ms", "ms"},
	{"ivm.retract_ms", "ms"},
	{"ivm.durable_insert_ms", "ms"},
	{"ivm.durable_retract_ms", "ms"},
	{"ivm.rows_out", "count"},
	{"ivm.rederived", "count"},
	{"ivm.count_updates", "count"},
	{"ivm.rounds", "count"},
	{"ivm.firings", "count"},
	{"ivm.retract_allocs", "count"},
	{"ivm.attach_ms", "ms"},
	{"wal.commit_ms", "ms"},
	{"wal.bytes_per_commit", "B"},
	{"snapshot.checkpoint_ms", "ms"},
	{"snapshot.bytes", "B"},
	{"core.universe_ms", "ms"},
	{"core.letters", "count"},
	{"core.tree_ms", "ms"},
	{"core.ptree_states", "count"},
	{"core.theta_states", "count"},
	{"core.states", "count"},
	{"core.word_ms", "ms"},
	{"core.canonical_ms", "ms"},
	{"core.equiv_ms", "ms"},
	{"nonrec.disjuncts", "count"},
	{"core.allocs", "count"},
	{"trace.overhead_frac", "ratio"},
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// medians collects per-call values and reports their median.
type medians map[string][]float64

func (m medians) add(name string, v float64) { m[name] = append(m[name], v) }

func (m medians) into(layers map[string]float64) {
	for name, xs := range m {
		layers[name] = median(xs)
	}
}

// probeTracer opens a probe's root span and returns a tracer under it.
func probeTracer(tr *tracer, name string) (*tracer, func()) {
	root := tr.begin(name, "")
	p := tr.fork()
	p.setParent(root)
	return p, func() { tr.end(root) }
}

// loadHandle builds an in-memory handle the way the server builds its
// store: maintain the program over an empty database, then insert the
// set-up batches one by one. The layout of the served relations, and so
// what a retract compacts, depends on that order.
func loadHandle(prog *ast.Program, batches [][]ast.Atom) (*eval.Handle, error) {
	h, _, err := eval.Maintain(prog, database.New(), eval.Options{Workers: serveWorkers})
	if err != nil {
		return nil, err
	}
	for _, facts := range batches {
		if _, err := h.Insert(facts); err != nil {
			return nil, err
		}
	}
	return h, nil
}

func probeServeRead(f *forest, queries []adhoc, tr *tracer, layers map[string]float64) error {
	p, done := probeTracer(tr, "probe.serve-read")
	defer done()
	prog, err := parser.Program(servedProgram)
	if err != nil {
		return err
	}
	batches, err := parseFacts(p, f.batches)
	if err != nil {
		return err
	}
	layers["parser.facts_us"] = p.medianMs("parser.FactList") * 1000

	// Two stores loaded alike: one behind the server layer in process, one
	// on a bare handle for the eval, plan and database layers under it.
	// Each query goes to both in turn, so a change in the machine's speed
	// moves the inner and the outer figure alike. Each call starts on a
	// collected heap: an ad-hoc eval leaves a 650k-row clone behind, and
	// whichever call came second would otherwise pay to collect the
	// first one's garbage.
	ctx := context.Background()
	srv, err := server.New(server.Config{Program: prog, Workers: serveWorkers})
	if err != nil {
		return err
	}
	for i, facts := range batches {
		if _, err := srv.Apply(ctx, "", database.OpInsert, facts, "setup", uint64(i+1), 0); err != nil {
			return err
		}
	}
	h, err := loadHandle(prog, batches)
	if err != nil {
		return err
	}
	db := h.DB()
	m := medians{}
	for _, q := range queries {
		var r server.QueryResult
		runtime.GC()
		p.call("server.Query/eval", func() { r, err = srv.Query(ctx, "", "q", q.program(), 0) })
		if err != nil || !equalStrings(sortedStrings(r.Tuples), q.answer()) {
			return fmt.Errorf("in-process eval %s: %v %v", q.program(), r.Tuples, err)
		}
		var qp *ast.Program
		p.call("parser.Program", func() { qp, err = parser.Program(q.program()) })
		if err != nil {
			return err
		}
		var out *database.DB
		var st eval.Stats
		runtime.GC()
		m0 := mallocs()
		p.call("eval.Eval", func() { out, st, err = eval.Eval(qp, db, eval.Options{Workers: serveWorkers}) })
		m.add("eval.allocs", float64(mallocs()-m0))
		if err != nil {
			return err
		}
		if rel := out.Lookup("q"); rel == nil || rel.Len() != chainEdges-q.j {
			return fmt.Errorf("eval.Eval %s: wrong answer", q.program())
		}
		m.add("eval.firings", float64(st.Firings))
		m.add("eval.derived", float64(st.Derived))
		m.add("eval.iterations", float64(st.Iterations))
		m.add("eval.index_builds", float64(st.IndexBuilds))
		m.add("eval.index_hits", float64(st.IndexHits))
		m.add("plan.cache_misses", float64(st.PlanCacheMisses))
		m.add("plan.replans", float64(st.PlanReplans))
		out = nil
	}
	if err := probeReads(p, srv); err != nil {
		return err
	}
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	m.into(layers)
	layers["server.query_ms"] = p.medianMs("server.Query/eval")
	layers["server.read_ms"] = p.medianMs("server.Query/read")
	layers["parser.program_us"] = p.medianMs("parser.Program") * 1000
	layers["eval.eval_ms"] = p.medianMs("eval.Eval")
	for i := 0; i < cloneProbes; i++ {
		p.call("database.Clone", func() { _ = db.Clone() })
	}
	layers["database.clone_ms"] = p.medianMs("database.Clone")
	storageStats(db, layers)
	return nil
}

func probeReads(p *tracer, srv *server.Server) error {
	hot := hotAnswer()
	for i := 0; i < readProbes; i++ {
		var r server.QueryResult
		var err error
		p.call("server.Query/read", func() { r, err = srv.Query(context.Background(), "", hotGoal, "", 0) })
		if err != nil || !equalStrings(r.Tuples, hot) {
			return fmt.Errorf("in-process query hot: %v %v", r.Tuples, err)
		}
	}
	return nil
}

func storageStats(db *database.DB, layers map[string]float64) {
	ss := db.StorageStats()
	layers["database.rows"] = float64(ss.Rows)
	layers["database.slab_mb"] = float64(ss.SlabBytes) / (1 << 20)
}

// update is one retract-then-insert pair of the run's stream.
type update struct {
	client string
	fact   string
}

// probeServeWrite times the mutation path's layers on the run's first
// updates. recoverDir is a copy of the run's directory as the SIGKILLed
// server left it.
func probeServeWrite(cfg *config, f *forest, recoverDir string, updates []update, tr *tracer, layers map[string]float64) error {
	p, done := probeTracer(tr, "probe.serve-write")
	defer done()
	prog, err := parser.Program(servedProgram)
	if err != nil {
		return err
	}
	texts := make([]string, len(updates))
	for i, u := range updates {
		texts[i] = u.fact + "."
	}
	facts, err := parseFacts(p, texts)
	if err != nil {
		return err
	}
	layers["parser.facts_us"] = p.medianMs("parser.FactList") * 1000
	batches, err := parseFacts(nil, f.batches)
	if err != nil {
		return err
	}

	// Recovery: database.Open alone, then the maintenance layer's attach.
	// A negative threshold stops the attach from folding the WAL tail into
	// a snapshot, so every probe recovers the same state.
	noFold := database.OpenOptions{SnapshotBytes: -1}
	for i := 0; i < openProbes; i++ {
		var d *database.Durable
		p.call("database.Open", func() { d, err = database.Open(recoverDir, noFold) })
		if err != nil {
			return err
		}
		var h *eval.Handle
		p.call("ivm.attach", func() { h, _, err = eval.MaintainDurable(prog, d, eval.Options{Workers: serveWorkers}) })
		if err != nil {
			return err
		}
		if err := h.Close(); err != nil {
			return err
		}
	}
	layers["database.open_ms"] = p.medianMs("database.Open")
	layers["ivm.attach_ms"] = p.medianMs("ivm.attach")

	// Every retract compacts its relation from the dead row on, so each
	// store that replays the stream starts in the timed phase's starting
	// state: loaded like set-up, drained, and copied.
	ctx := context.Background()
	base := filepath.Join(cfg.work, "probe-base")
	srv, err := server.New(server.Config{Program: prog, DataDir: base, Workers: serveWorkers})
	if err != nil {
		return err
	}
	for i, b := range batches {
		if _, err := srv.Apply(ctx, "", database.OpInsert, b, "setup", uint64(i+1), 0); err != nil {
			return err
		}
	}
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	serverDir := filepath.Join(cfg.work, "probe-server")
	if err := copyDir(base, serverDir); err != nil {
		return err
	}

	// Three stores replay the stream, one update pair at a time in turn,
	// so a change in the machine's speed moves all three figures alike:
	// the server layer in process and the durable maintenance handle
	// under it, both decoded from the drained snapshot like the served
	// store, and an in-memory handle. eval.Maintain cannot start from a
	// snapshot, so that one is loaded batch by batch like set-up.
	srv, err = server.New(server.Config{Program: prog, DataDir: serverDir, SnapshotBytes: snapshotBytes, Workers: serveWorkers})
	if err != nil {
		return err
	}
	d, err := database.Open(base, database.OpenOptions{SnapshotBytes: snapshotBytes})
	if err != nil {
		return err
	}
	hd, _, err := eval.MaintainDurable(prog, d, eval.Options{Workers: serveWorkers})
	if err != nil {
		return err
	}
	hm, err := loadHandle(prog, batches)
	if err != nil {
		return err
	}
	seqs := map[string]uint64{}
	apply := func(name string, op byte, i int) error {
		client := updates[i].client
		seqs[client]++
		var r server.MutationResult
		p.call(name, func() { r, err = srv.Apply(ctx, "", op, facts[i], client, seqs[client], 0) })
		if err != nil || !r.Applied {
			return fmt.Errorf("in-process %s %s: %+v %v", name, updates[i].fact, r, err)
		}
		return nil
	}
	m := medians{}
	for i, fs := range facts {
		// Which store goes first rotates from pair to pair.
		steps := []func() error{
			func() error {
				if err := apply("server.Apply/retract", database.OpRetract, i); err != nil {
					return err
				}
				return apply("server.Apply/insert", database.OpInsert, i)
			},
			func() error { return replayPair(p, hd, fs, "ivm.durable", nil) },
			func() error { return replayPair(p, hm, fs, "ivm", m) },
		}
		for k := range steps {
			if err := steps[(i+k)%len(steps)](); err != nil {
				return err
			}
		}
	}
	if err := probeReads(p, srv); err != nil {
		return err
	}
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	layers["server.apply_retract_ms"] = p.medianMs("server.Apply/retract")
	layers["server.apply_insert_ms"] = p.medianMs("server.Apply/insert")
	layers["server.read_ms"] = p.medianMs("server.Query/read")
	layers["ivm.durable_retract_ms"] = p.medianMs("ivm.durable.Retract")
	layers["ivm.durable_insert_ms"] = p.medianMs("ivm.durable.Insert")
	m.into(layers)
	layers["ivm.retract_ms"] = p.medianMs("ivm.Retract")
	layers["ivm.insert_ms"] = p.medianMs("ivm.Insert")
	storageStats(hm.DB(), layers)
	srv, hm = nil, nil
	runtime.GC()

	// Snapshot folds of the durable handle's store.
	for i := 0; i < ckptProbes; i++ {
		p.call("snapshot.Checkpoint", func() { err = hd.Checkpoint() })
		if err != nil {
			return err
		}
	}
	layers["snapshot.checkpoint_ms"] = p.medianMs("snapshot.Checkpoint")
	gens, err := snapshot.List(base)
	if err != nil || len(gens) == 0 {
		return fmt.Errorf("no snapshot after checkpoint: %v", err)
	}
	fi, err := os.Stat(snapshot.Path(base, gens[len(gens)-1]))
	if err != nil {
		return err
	}
	layers["snapshot.bytes"] = float64(fi.Size())
	if err := hd.Close(); err != nil {
		return err
	}

	return probeWAL(cfg, p, facts, layers)
}

// parseFacts parses fact-list texts, each inside a parser.FactList span
// when p is non-nil.
func parseFacts(p *tracer, texts []string) ([][]ast.Atom, error) {
	out := make([][]ast.Atom, len(texts))
	for i, t := range texts {
		var err error
		p.call("parser.FactList", func() { out[i], err = parser.FactList(t) })
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// copyDir copies the regular files of directory src into a new dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// replayPair retracts a fact batch from a handle and inserts it again,
// inside spans named prefix.Retract and prefix.Insert; with m non-nil it
// also collects the retraction's work counters.
func replayPair(p *tracer, h *eval.Handle, fs []ast.Atom, prefix string, m medians) error {
	var us eval.UpdateStats
	var err error
	m0 := mallocs()
	p.call(prefix+".Retract", func() { us, err = h.Retract(fs) })
	allocs := mallocs() - m0
	if err != nil || us.RowsDeleted == 0 {
		return fmt.Errorf("%s retract %v: %v %v", prefix, fs, us, err)
	}
	if m != nil {
		m.add("ivm.retract_allocs", float64(allocs))
		m.add("ivm.rows_out", float64(us.RowsDeleted))
		m.add("ivm.rederived", float64(us.Rederived))
		m.add("ivm.count_updates", float64(us.CountUpdates))
		m.add("ivm.rounds", float64(us.Rounds))
		m.add("ivm.firings", float64(us.Firings))
	}
	p.call(prefix+".Insert", func() { us, err = h.Insert(fs) })
	if err != nil || us.RowsInserted == 0 {
		return fmt.Errorf("%s insert %v: %v %v", prefix, fs, us, err)
	}
	return nil
}

// probeWAL commits the stream's batches, encoded as the server frames
// them, to a fresh log.
func probeWAL(cfg *config, p *tracer, facts [][]ast.Atom, layers map[string]float64) error {
	dir := filepath.Join(cfg.work, "wal-probe")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	l, _, err := wal.Open(filepath.Join(dir, "wal"))
	if err != nil {
		return err
	}
	defer l.Close()
	var seq uint64
	for _, fs := range facts {
		for _, op := range []byte{database.OpRetract, database.OpInsert} {
			seq++
			payload := database.EncodeBatchTagged(op, fs, "probe", seq)
			p.call("wal.Commit", func() { err = l.Commit(payload) })
			if err != nil {
				return err
			}
		}
	}
	layers["wal.commit_ms"] = p.medianMs("wal.Commit")
	layers["wal.bytes_per_commit"] = float64(l.Size()) / float64(seq)
	return nil
}
