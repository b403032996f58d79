package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// reported are the metrics each workload prints by name on its report
// lines, beside the JSON summary.
var reported = map[string][]string{
	"serve-read": {"setup_s", "ops_per_s", "eval_p50_ms", "eval_tail_ms", "read_p50_ms", "read_tail_ms",
		"failed_frac", "peak_rss_mb"},
	"serve-write": {"setup_s", "ops_per_s", "insert_p50_ms", "insert_tail_ms", "retract_p50_ms", "retract_tail_ms",
		"read_p50_ms", "read_tail_ms", "recover_s", "failed_frac", "peak_rss_mb", "store_bytes_per_fact"},
	"equiv-paper": {"setup_s", "ops_per_s", "decide_p50_ms", "decide_tail_ms", "canonical_p50_ms", "canonical_tail_ms",
		"passes", "failed_frac", "peak_rss_mb"},
}

type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) (*spec, map[string]json.RawMessage) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(b) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes", len(b))
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	var s spec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatal(err)
	}
	return &s, raw
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

func TestBenchmarkJSON(t *testing.T) {
	s, raw := loadSpec(t)
	keys := []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
	if len(raw) != len(keys) {
		t.Errorf("BENCHMARK.json has %d keys, want %v", len(raw), keys)
	}
	for _, k := range keys {
		if raw[k] == nil {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	if len(s.Command) == 0 || len(s.Command) > 32 {
		t.Errorf("command has %d strings", len(s.Command))
	}
	for _, c := range s.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command string %q", c)
		}
	}
	if len(s.Paths) < 1 || len(s.Paths) > 16 {
		t.Errorf("%d paths", len(s.Paths))
	}
	for _, p := range s.Paths {
		if !pathRE.MatchString(p) || strings.Contains(p, "..") {
			t.Errorf("path %q", p)
		}
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds %d", s.RunSeconds)
	}
	if len(s.Workloads) < 2 || len(s.Workloads) > 8 {
		t.Errorf("%d workloads", len(s.Workloads))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or repeated", n)
		}
		seen[n] = true
	}
	for _, w := range s.Workloads {
		name(w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(s.EndToEnd) != len(endToEnd) {
		t.Errorf("end_to_end lists %d metrics, the benchmark reports %d", len(s.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range s.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %+v", m)
		}
		if i < len(endToEnd) && (endToEnd[i].name != m.Name || endToEnd[i].unit != m.Unit) {
			t.Errorf("end_to_end[%d] = %s %s, the benchmark reports %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range s.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s bound %v is not the largest (%s: %v)", m.Bound, o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if len(s.PerLayer) != len(perLayer) || len(s.PerLayer) > 128 {
		t.Errorf("per_layer lists %d metrics, the benchmark reports %d", len(s.PerLayer), len(perLayer))
	}
	for i, m := range s.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per_layer %+v", m)
		}
		if i < len(perLayer) && (perLayer[i].name != m.Name || perLayer[i].unit != m.Unit) {
			t.Errorf("per_layer[%d] = %s %s, the benchmark reports %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestWorkloadsTiny runs every workload, untraced and traced, on a tiny
// forest and checks the printed report and the JSON summary line.
func TestWorkloadsTiny(t *testing.T) {
	s, _ := loadSpec(t)
	bin := filepath.Join(t.TempDir(), "datalog")
	if out, err := exec.Command("go", "build", "-o", bin, "datalogeq/cmd/datalog").CombinedOutput(); err != nil {
		t.Fatalf("build datalog: %v\n%s", err, out)
	}
	for _, w := range s.Workloads {
		for _, trace := range []int{0, 1} {
			t.Run(w.Name+"/trace="+strconv.Itoa(trace), func(t *testing.T) {
				cfg, err := parseFlags([]string{"--workload", w.Name, "--seed", "3", "--seconds", "1",
					"--trace", strconv.Itoa(trace), "--datalog", bin, "--work", t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				cfg.chains = 200
				var out bytes.Buffer
				if err := run(cfg, &out); err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				checkReport(t, w.Name, lines[:len(lines)-1])
				want := map[string]string{}
				if trace == 0 {
					for _, m := range s.EndToEnd {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range s.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				checkSummary(t, lines[len(lines)-1], want, trace == 0)
			})
		}
	}
}

// checkReport asserts that every metric the workload measures is
// printed with its unit and that no request failed.
func checkReport(t *testing.T, workload string, lines []string) {
	t.Helper()
	printed := map[string][]string{}
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) >= 4 && f[0] == "end_to_end" {
			printed[f[1]] = f[2:]
		}
	}
	for _, name := range reported[workload] {
		f, ok := printed[name]
		if !ok {
			t.Errorf("%s not printed:\n%s", name, strings.Join(lines, "\n"))
			continue
		}
		if !unitRE.MatchString(f[1]) {
			t.Errorf("%s printed without a unit: %v", name, f)
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			t.Errorf("%s = %q", name, f[0])
		}
		if name == "failed_frac" && v != 0 {
			t.Errorf("failed_frac = %v", v)
		}
	}
}

// checkSummary parses the JSON summary line against the output contract.
func checkSummary(t *testing.T, line string, want map[string]string, nonzero bool) {
	t.Helper()
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &raw); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, line)
	}
	if len(raw) != 4 {
		t.Errorf("summary keys: %s", line)
	}
	var sum struct {
		Correct   *bool  `json:"correct"`
		Attempted *int64 `json:"attempted"`
		Failed    *int64 `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sum); err != nil {
		t.Fatalf("summary: %v\n%s", err, line)
	}
	if sum.Correct == nil || !*sum.Correct || sum.Attempted == nil || *sum.Attempted < 1 || sum.Failed == nil || *sum.Failed != 0 {
		t.Errorf("summary: %s", line)
	}
	if len(sum.Metrics) != len(want) {
		t.Errorf("summary has %d metrics, want %d", len(sum.Metrics), len(want))
	}
	for name, unit := range want {
		m, ok := sum.Metrics[name]
		switch {
		case !ok || m.Value == nil:
			t.Errorf("summary lacks %s", name)
		case m.Unit != unit:
			t.Errorf("%s unit %q, want %q", name, m.Unit, unit)
		case nonzero && *m.Value <= 0:
			t.Errorf("%s = %v, want > 0", name, *m.Value)
		}
	}
}

// TestRunFailsWithoutSources runs run.sh in a directory holding only
// BENCHMARK.json and the benchmark: it must fail without a summary.
func TestRunFailsWithoutSources(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "perfbench"), 0o755); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob("*")
	for _, f := range append(files, "../BENCHMARK.json") {
		b, err := os.ReadFile(f)
		if err != nil {
			continue // a directory
		}
		dst := filepath.Join(dir, "perfbench", f)
		if f == "../BENCHMARK.json" {
			dst = filepath.Join(dir, "BENCHMARK.json")
		}
		if err := os.WriteFile(dst, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", "equiv-paper", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = dir
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err == nil {
		t.Fatal("run.sh succeeded without the repository's sources")
	}
	if strings.Contains(stdout.String(), `"metrics"`) {
		t.Errorf("run.sh printed a summary without sources:\n%s", stdout.String())
	}
}
