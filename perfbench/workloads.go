package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// tracedPhase replays a timed phase's requests with a span around every
// client request.
func tracedPhase(cfg *config, sessions []*session, step func(*session)) (phase, *tracer) {
	tr := newTracer()
	for _, s := range sessions {
		s.tr = tr.fork()
	}
	return runLoad(sessions, cfg.seed, cfg.duration(), step), tr
}

// overhead is the traced replay's throughput loss against the untraced
// phase, as a fraction of the untraced throughput.
func overhead(untraced, traced *phase) float64 {
	return 1 - traced.opsPerSec()/untraced.opsPerSec()
}

// serverCounters copies the child's shed/unknown/rebuilds counters from
// its `stats` line into the per-layer metrics.
func serverCounters(stats string, layers map[string]float64) {
	for _, k := range []string{"shed", "unknown", "rebuilds"} {
		v, _ := statsField(stats, k)
		layers["server."+k] = float64(v)
	}
}

func failedFrac(t tally) float64 { return float64(t.failed()) / float64(t.attempted) }

func runServeRead(cfg *config) (*runResult, error) {
	f := newForest(cfg.seed, cfg.chains)
	ch, setupS, err := setupRepeated(cfg, f, "")
	if err != nil {
		return nil, err
	}
	defer ch.kill()
	sessions, err := openSessions(ch.addr, false)
	if err != nil {
		return nil, err
	}
	defer closeSessions(sessions)
	hot := hotAnswer()
	step := func(s *session) {
		a := nextAdhoc(s.rng, f.chains)
		s.query("eval", "eval q "+a.program(), a.answer())
		for i := 0; i < readsPerEval; i++ {
			s.query("read", "query "+hotGoal, hot)
		}
	}
	ph := runLoad(sessions, cfg.seed, cfg.duration(), step)
	res := &runResult{op: "eval", total: ph.tally, checked: true}
	// Ad-hoc evals leave the store as it was, so the traced replay runs
	// on the same server.
	var traced phase
	var tr *tracer
	if cfg.trace {
		traced, tr = tracedPhase(cfg, sessions, step)
		res.total.merge(traced.tally)
	}
	stats, err := childStats(ch.addr)
	if err != nil {
		return nil, err
	}
	rss, err := ch.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	ch.kill()

	res.e2e.add("setup_s", setupS, "s")
	res.e2e.add("ops_per_s", ph.opsPerSec(), "ops/s")
	res.e2e.addLatency("eval", ph.class("eval"))
	res.e2e.addLatency("read", ph.class("read"))
	res.e2e.add("failed_frac", failedFrac(ph.tally), "ratio")
	res.e2e.add("peak_rss_mb", rss, "MiB")
	if !cfg.trace {
		return res, nil
	}
	res.layers = map[string]float64{"trace.overhead_frac": overhead(&ph, &traced)}
	serverCounters(stats, res.layers)
	// The probes replay the run's first ad-hoc queries in process.
	rng := clientRNG(cfg.seed, 0)
	var queries []adhoc
	for i := 0; i < adhocProbes; i++ {
		queries = append(queries, nextAdhoc(rng, f.chains))
	}
	if err := probeServeRead(f, queries, tr, res.layers); err != nil {
		return nil, err
	}
	res.layers["server.transport_ms"] = traced.class("read").p50() - res.layers["server.read_ms"]
	return res, tr.write(cfg.spans)
}

// startWriteServer sets up a durable store in dir (cfg.setupCount()
// times, keeping the last) at the server's default snapshot threshold,
// drains that server, and serves the same directory with
// -snapshot-bytes snapshotBytes.
func startWriteServer(cfg *config, f *forest, dir string) (*child, float64, error) {
	ch, setupS, err := setupRepeated(cfg, f, dir)
	if err != nil {
		return nil, 0, err
	}
	if err := ch.stop(); err != nil {
		return nil, 0, err
	}
	ch, err = startChild(cfg, dir, snapshotBytes)
	return ch, setupS, err
}

func runServeWrite(cfg *config) (*runResult, error) {
	f := newForest(cfg.seed, cfg.chains)
	dataDir := filepath.Join(cfg.work, "data")
	ch, setupS, err := startWriteServer(cfg, f, dataDir)
	if err != nil {
		return nil, err
	}
	defer func() { ch.kill() }()
	sessions, err := openSessions(ch.addr, true)
	if err != nil {
		return nil, err
	}
	hot := hotAnswer()
	step := func(s *session) {
		fact := nextUpdate(s.rng, f.chains, s.id)
		s.mutate("retract", fact)
		s.mutate("insert", fact)
		s.query("read", "query "+hotGoal, hot)
	}
	ph := runLoad(sessions, cfg.seed, cfg.duration(), step)
	closeSessions(sessions)
	stats, err := childStats(ch.addr)
	if err != nil {
		return nil, err
	}
	rss, err := ch.peakRSSMiB()
	if err != nil {
		return nil, err
	}

	// Crash and recover: SIGKILL, restart on the same directory, and time
	// to the first correct answer. A traced run keeps a copy of the
	// directory as the kill left it for its recovery probes.
	ch.kill()
	recoverDir := filepath.Join(cfg.work, "data-killed")
	if cfg.trace {
		if err := copyDir(dataDir, recoverDir); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	ch, err = startChild(cfg, dataDir, snapshotBytes)
	if err != nil {
		return nil, err
	}
	c, err := dial(ch.addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	status, body, err := c.do("query " + hotGoal)
	recoverS := time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	res := &runResult{op: "retract", total: ph.tally}
	res.total.record(checkRows(status, body, hot))
	if res.checked, err = checkRecovered(c, f, uint64(len(f.batches))+uint64(ph.acked)); err != nil {
		return nil, err
	}
	storeBytes, err := dirBytes(dataDir)
	if err != nil {
		return nil, err
	}
	c.close()
	ch.kill()

	res.e2e.add("setup_s", setupS, "s")
	res.e2e.add("ops_per_s", ph.opsPerSec(), "ops/s")
	res.e2e.addLatency("insert", ph.class("insert"))
	res.e2e.addLatency("retract", ph.class("retract"))
	res.e2e.addLatency("read", ph.class("read"))
	res.e2e.add("recover_s", recoverS, "s")
	res.e2e.add("failed_frac", failedFrac(ph.tally), "ratio")
	res.e2e.add("peak_rss_mb", rss, "MiB")
	res.e2e.add("store_bytes_per_fact", float64(storeBytes)/float64(f.facts()), "B")
	if !cfg.trace {
		return res, nil
	}

	// A retract compacts its relation from the dead row on, and the
	// untraced phase moved every row it touched to the end. The traced
	// replay therefore gets a fresh store in the untraced phase's
	// starting state.
	tracedDir := filepath.Join(cfg.work, "data-traced")
	if ch, _, err = startWriteServer(cfg, f, tracedDir); err != nil {
		return nil, err
	}
	if sessions, err = openSessions(ch.addr, true); err != nil {
		return nil, err
	}
	traced, tr := tracedPhase(cfg, sessions, step)
	closeSessions(sessions)
	res.total.merge(traced.tally)
	ch.kill()

	res.layers = map[string]float64{"trace.overhead_frac": overhead(&ph, &traced)}
	serverCounters(stats, res.layers)
	var updates []update
	for c := 0; c < serveClients; c++ {
		rng := clientRNG(cfg.seed, c)
		for i := 0; i < updateProbes/serveClients; i++ {
			updates = append(updates, update{fmt.Sprintf("w%d", c), nextUpdate(rng, f.chains, c)})
		}
	}
	if err := probeServeWrite(cfg, f, recoverDir, updates, tr, res.layers); err != nil {
		return nil, err
	}
	res.layers["server.transport_ms"] = traced.class("read").p50() - res.layers["server.read_ms"]
	return res, tr.write(cfg.spans)
}

// checkRecovered compares the restarted server's e and tc with the
// initial fixpoint (every retract was re-inserted) and its committed
// sequence with set-up batches plus acknowledged mutations.
func checkRecovered(c *conn, f *forest, wantSeq uint64) (bool, error) {
	wantE, wantTC := fixpoint(f.chains)
	stE, e, err := c.do("query e")
	if err != nil {
		return false, err
	}
	stTC, tc, err := c.do("query tc")
	if err != nil {
		return false, err
	}
	st, _, err := c.do("stats")
	if err != nil {
		return false, err
	}
	seq, _ := statsField(st, "seq")
	ok := checkRows(stE, e, wantE) == okAnswer && checkRows(stTC, tc, wantTC) == okAnswer && seq == wantSeq
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: recovered state differs: e %d/%d rows, tc %d/%d rows, seq %d/%d\n",
			len(e), len(wantE), len(tc), len(wantTC), seq, wantSeq)
	}
	return ok, nil
}
