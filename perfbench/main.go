// Command perfbench is the repository's benchmark. It drives one of
// three closed-loop workloads — serve-read and serve-write against a
// child `datalog serve` over loopback TCP, equiv-paper in process
// against the paper's decision procedures — checks every answer, and
// prints its metrics by name and unit. The last line of standard output
// is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run replays the same requests with spans recorded around every client
// request and around in-process calls into each layer, and the metrics
// are the per-layer ones. See README.md.
//
// Usage (from the repository root; run.sh builds both binaries):
//
//	bash perfbench/run.sh --workload serve-read --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	datalog  string // the `datalog` binary under test
	work     string // scratch directory for data dirs and temp files
	spans    string // where a traced run writes its spans
	chains   int    // chains in the served forest
}

const (
	// servedChains is the served forest's size: 10,000 disjoint 10-edge
	// chains, 100k base facts. The tests shrink cfg.chains in process.
	servedChains = 10000
	// setups is how many times an untraced run sets up; setup_s is their
	// median.
	setups = 5
)

func (c *config) duration() time.Duration { return time.Duration(c.seconds) * time.Second }

// setupCount is how many times a run sets up. A traced run reports no
// setup_s, so it sets up once.
func (c *config) setupCount() int {
	if c.trace {
		return 1
	}
	return setups
}

// runResult is what a workload hands back for reporting.
type runResult struct {
	e2e     metrics // end-to-end metrics under their workload names
	op      string  // the latency class reported as op_*
	layers  map[string]float64
	total   tally // every request attempted and how it failed
	checked bool  // every end-of-run check passed
}

var workloads = map[string]func(*config) (*runResult, error){
	"serve-read":  runServeRead,
	"serve-write": runServeWrite,
	"equiv-paper": runEquiv,
}

// endToEnd are the metrics a --trace 0 run reports, as in
// BENCHMARK.json. op_* is each workload's primary operation: ad-hoc
// eval on serve-read, retract on serve-write, an automata decision on
// equiv-paper. The report prints every tail and every other latency
// class too; they are not gated because their run-to-run spread is too
// wide to bound (see README.md).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"op_p50_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (*config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	cfg := &config{chains: servedChains}
	fs.StringVar(&cfg.workload, "workload", "", "serve-read, serve-write or equiv-paper")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	fs.IntVar(&cfg.seconds, "seconds", 10, "length of each timed phase")
	trace := fs.Int("trace", 0, "1 replays the run with spans and reports per-layer metrics")
	fs.StringVar(&cfg.datalog, "datalog", "", "path to the datalog binary (serve workloads)")
	fs.StringVar(&cfg.work, "work", ".bench_build/work", "scratch directory")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	cfg.trace = *trace != 0
	if workloads[cfg.workload] == nil {
		return nil, fmt.Errorf("unknown --workload %q", cfg.workload)
	}
	if cfg.seconds < 1 {
		return nil, fmt.Errorf("need --seconds ≥ 1")
	}
	if strings.HasPrefix(cfg.workload, "serve-") && cfg.datalog == "" {
		return nil, fmt.Errorf("--datalog is required for %s", cfg.workload)
	}
	return cfg, nil
}

func run(cfg *config, w io.Writer) error {
	run := fmt.Sprintf("%s-%d", cfg.workload, cfg.seed)
	cfg.spans = filepath.Join(cfg.work, "spans-"+run+".jsonl")
	cfg.work = filepath.Join(cfg.work, run)
	if err := os.RemoveAll(cfg.work); err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.work)
	res, err := workloads[cfg.workload](cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%d trace=%d chains=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, boolInt(cfg.trace), cfg.chains)
	for _, m := range res.e2e {
		printMetric(w, "end_to_end", m)
	}
	out := map[string]jsonMetric{}
	if cfg.trace {
		for _, l := range perLayer {
			m := metric{Name: l.name, Value: res.layers[l.name], Unit: l.unit}
			printMetric(w, "per_layer", m)
			out[l.name] = jsonMetric{m.Value, m.Unit}
		}
	} else {
		for _, e := range endToEnd {
			src := e.name
			if rest, ok := strings.CutPrefix(e.name, "op_"); ok {
				src = res.op + "_" + rest
			}
			m, ok := res.e2e.get(src)
			if !ok {
				return fmt.Errorf("workload %s did not measure %s", cfg.workload, src)
			}
			out[e.name] = jsonMetric{m.Value, e.unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{res.checked && res.total.wrong == 0, res.total.attempted, res.total.failed(), out})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return nil
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printMetric(w io.Writer, kind string, m metric) {
	fmt.Fprintf(w, "%s %s %.6g %s", kind, m.Name, m.Value, m.Unit)
	if m.Note != "" {
		fmt.Fprintf(w, " (%s)", m.Note)
	}
	fmt.Fprintln(w)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
