package main

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"
)

const (
	// serveClients is the closed-loop client count: one load-generating
	// process, two connections, matching a two-core machine.
	serveClients = 2
	// serveWorkers is the child's per-request eval worker count. With two
	// closed-loop clients both cores are already busy; per-request
	// parallelism would only oversubscribe them.
	serveWorkers = 1
	// thinkMax bounds a client's seeded think time after each cycle. It
	// keeps the two clients from locking into one relative phase for a
	// whole run: without it, runs of the same code settled into a fast or
	// a slow mode and differed by up to 30%. Think time counts toward the
	// phase's elapsed time, so it dilutes ops_per_s (see README.md).
	thinkMax = 50 * time.Millisecond
	// readsPerEval is serve-read's mix: each ad-hoc eval is followed by
	// this many `query hot` reads.
	readsPerEval = 4
	// snapshotBytes is serve-write's -snapshot-bytes for the timed phase:
	// the WAL size at which a commit folds the store into a new snapshot
	// generation. Single-fact frames are ~40 B, so a snapshot fires about
	// every 100 mutations, several times per run. Set-up runs at the
	// server's default instead: every 1,000-fact batch would cross this
	// threshold, and each set-up would write a hundred full snapshots.
	snapshotBytes = 4096
)

// tally counts one load phase's requests and how they failed.
type tally struct {
	attempted, wrong, errs, shed, unknown int64
}

func (t *tally) record(o outcome) {
	t.attempted++
	switch o {
	case wrongAnswer:
		t.wrong++
	case errReply:
		t.errs++
	case shedReply:
		t.shed++
	case unknownReply:
		t.unknown++
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.wrong += o.wrong
	t.errs += o.errs
	t.shed += o.shed
	t.unknown += o.unknown
}

func (t *tally) failed() int64 { return t.wrong + t.errs + t.shed + t.unknown }

// phase is one closed-loop load phase's outcome.
type phase struct {
	tally
	elapsed time.Duration
	lat     map[string]*latencies // by op class: eval, read, insert, retract
	acked   int64                 // acknowledged mutations
}

func (p *phase) class(name string) *latencies {
	if p.lat[name] == nil {
		p.lat[name] = &latencies{}
	}
	return p.lat[name]
}

func (p *phase) opsPerSec() float64 { return float64(p.attempted) / p.elapsed.Seconds() }

// session is one client connection's loop state. Each client owns its
// tally, latencies and sequence numbers; the phase merges them at the
// end, so the loop itself shares nothing.
type session struct {
	id  int
	c   *conn
	tr  *tracer
	rng *rand.Rand
	out phase
	seq uint64 // last mutation sequence number sent
}

// request sends one command, times it at the client, checks the reply
// and records it under class.
func (s *session) request(class, cmd string, check func(status string, body []string) outcome) {
	sp := -1
	if s.tr != nil {
		sp = s.tr.begin(class, fmt.Sprintf("c%d-%d", s.id, s.out.attempted))
	}
	t0 := time.Now()
	status, body, err := s.c.do(cmd)
	d := time.Since(t0)
	s.tr.end(sp)
	o := errReply
	if err == nil {
		o = check(status, body)
	}
	s.out.record(o)
	if o == okAnswer {
		s.out.class(class).add(d)
	}
}

// mutate sends one idempotent single-fact mutation and expects it to be
// applied, not deduplicated.
func (s *session) mutate(op, fact string) {
	s.seq++
	s.request(op, fmt.Sprintf("%s %d %s.", op, s.seq, fact), func(status string, _ []string) outcome {
		if o := classify(status); o != okAnswer {
			return o
		}
		if !strings.HasPrefix(status, "ok applied") {
			return wrongAnswer
		}
		s.out.acked++
		return okAnswer
	})
}

func (s *session) query(class, cmd string, want []string) {
	s.request(class, cmd, func(status string, body []string) outcome { return checkRows(status, body, want) })
}

// runLoad drives the closed-loop sessions for d; step issues one cycle
// of a client's requests and is called until time is up. Every phase
// restarts each client's request generator from the seed, so a traced
// phase replays the untraced one's requests. The sessions persist
// across phases so mutation sequence numbers keep rising.
func runLoad(sessions []*session, seed int64, d time.Duration, step func(s *session)) phase {
	for _, s := range sessions {
		s.out = phase{lat: map[string]*latencies{}}
		s.rng = clientRNG(seed, s.id)
	}
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for _, s := range sessions {
		wg.Add(1)
		go func(s *session) { //repolint:allow goroutine — one closed-loop client per connection, joined by wg; not round-engine work.
			defer wg.Done()
			root := s.tr.begin(fmt.Sprintf("client-%d", s.id), "")
			s.tr.setParent(root)
			for time.Now().Before(end) {
				step(s)
				time.Sleep(time.Duration(s.rng.Int63n(int64(thinkMax))))
			}
			s.tr.end(root)
		}(s)
	}
	wg.Wait()
	total := phase{elapsed: time.Since(start), lat: map[string]*latencies{}}
	for _, s := range sessions {
		total.merge(s.out.tally)
		total.acked += s.out.acked
		for name, l := range s.out.lat {
			total.class(name).ms = append(total.class(name).ms, l.ms...)
		}
	}
	return total
}

// openSessions connects the load clients; with hello, each registers
// its own client ID for idempotent mutations.
func openSessions(addr string, hello bool) ([]*session, error) {
	var out []*session
	for i := 0; i < serveClients; i++ {
		c, err := dial(addr)
		if err != nil {
			return nil, err
		}
		if hello {
			if st, _, err := c.do(fmt.Sprintf("hello w%d", i)); err != nil || !strings.HasPrefix(st, "ok hello") {
				return nil, fmt.Errorf("hello: %q %v", st, err)
			}
		}
		out = append(out, &session{id: i, c: c})
	}
	return out, nil
}

func closeSessions(ss []*session) {
	for _, s := range ss {
		s.c.close()
	}
}

// setupServe starts a child and loads the forest in idempotent insert
// batches. The returned duration runs from process start to the last
// batch acknowledged, materialization included.
func setupServe(cfg *config, f *forest, dataDir string) (*child, time.Duration, error) {
	t0 := time.Now()
	ch, err := startChild(cfg, dataDir, 0)
	if err != nil {
		return nil, 0, err
	}
	c, err := dial(ch.addr)
	if err != nil {
		ch.kill()
		return nil, 0, err
	}
	defer c.close()
	if _, _, err := c.do("hello setup"); err != nil {
		ch.kill()
		return nil, 0, err
	}
	for i, b := range f.batches {
		st, _, err := c.do(fmt.Sprintf("insert %d %s", i+1, b))
		if err != nil || !strings.HasPrefix(st, "ok applied") {
			ch.kill()
			return nil, 0, fmt.Errorf("setup batch %d: %q %v", i+1, st, err)
		}
	}
	return ch, time.Since(t0), nil
}

// setupRepeated sets up cfg.setupCount() times and keeps the last
// child; the others are killed. With dir set the store is durable, and
// each set-up starts from an empty dir. It returns the median set-up
// time in seconds.
func setupRepeated(cfg *config, f *forest, dir string) (ch *child, setupS float64, err error) {
	var ds []time.Duration
	for i := 0; i < cfg.setupCount(); i++ {
		ch.kill()
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return nil, 0, err
			}
		}
		var d time.Duration
		if ch, d, err = setupServe(cfg, f, dir); err != nil {
			return nil, 0, err
		}
		ds = append(ds, d)
	}
	return ch, medianDur(ds), nil
}

// childStats asks the child for its `stats` line.
func childStats(addr string) (string, error) {
	c, err := dial(addr)
	if err != nil {
		return "", err
	}
	defer c.close()
	st, _, err := c.do("stats")
	return st, err
}
