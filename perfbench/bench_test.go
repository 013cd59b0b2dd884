package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// The benchmark's own tests: every workload runs a short smoke in both
// modes, the printed metric names and units are exactly those
// BENCHMARK.json declares, and a planted wrong expected answer is
// caught. They run from this directory; the program reads the
// committed figure files from the repository root.

type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(buf, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// smokeRun is a short run: a sub-second window and one set-up.
func smokeRun(t *testing.T, trace, plant bool) *run {
	t.Helper()
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.SetupRepeats = 1
	cfg.Sweep.SetupRepeats = 1
	cfg.Sweep.Fig6Reps, cfg.Sweep.Fig6EcommerceReps, cfg.Sweep.Fig7Reps, cfg.Sweep.Fig8Reps = 1, 1, 1, 1
	return &run{cfg: cfg, seed: 7, window: 400 * time.Millisecond, trace: trace, plant: plant}
}

// inRepoRoot runs fn from the repository root, where the program
// finds results/fig*.tsv.
func inRepoRoot(t *testing.T, fn func()) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	fn()
}

func TestWorkloadSmoke(t *testing.T) {
	d := loadDeclared(t)
	for _, name := range sortedKeys(workloads) {
		for _, trace := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[trace], func(t *testing.T) {
				r := smokeRun(t, trace, false)
				var (
					out *outcome
					err error
				)
				inRepoRoot(t, func() { out, err = workloads[name](r) })
				if err != nil {
					t.Fatal(err)
				}
				res := finish(r, out)
				if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d notes=%v", res.Correct, res.Attempted, res.Failed, out.notes)
				}
				want := d.EndToEnd
				if trace {
					want = d.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, declared %q", m.Name, got.Unit, m.Unit)
					}
				}
				if !trace {
					for _, m := range []string{"setup_s", "throughput_per_s", "op_ms_p50", "op_ms_p90", "peak_rss_mb"} {
						if res.Metrics[m].Value <= 0 {
							t.Errorf("%s = %v, want > 0", m, res.Metrics[m].Value)
						}
					}
				}
			})
		}
	}
}

// TestCorpusFamilySplit pins the exercise/bypass split the traced
// corpus run exists to show: telco chains reach the combine, web
// tiers never do.
func TestCorpusFamilySplit(t *testing.T) {
	r := smokeRun(t, true, false)
	out, err := runCorpus(r)
	if err != nil {
		t.Fatal(err)
	}
	if v := out.layers["core.phase.combine_ms.telco"].Value; v <= 0 {
		t.Errorf("core.phase.combine_ms.telco = %v, want > 0", v)
	}
	if v := out.layers["core.phase.combine_ms.web"].Value; v != 0 {
		t.Errorf("core.phase.combine_ms.web = %v, want 0", v)
	}
}

func TestPlantedWrongAnswerFails(t *testing.T) {
	for _, name := range sortedKeys(workloads) {
		t.Run(name, func(t *testing.T) {
			r := smokeRun(t, false, true)
			var (
				out *outcome
				err error
			)
			inRepoRoot(t, func() { out, err = workloads[name](r) })
			if err != nil {
				t.Fatal(err)
			}
			res := finish(r, out)
			if res.Correct || res.Metrics["success_rate"].Value >= 1 {
				t.Fatalf("planted wrong answer not caught: correct=%v success_rate=%v",
					res.Correct, res.Metrics["success_rate"].Value)
			}
		})
	}
}

// TestResultLine runs the command end to end and checks the last
// stdout line is the result object with exactly the declared names.
func TestResultLine(t *testing.T) {
	d := loadDeclared(t)
	var stdout bytes.Buffer
	dir := t.TempDir()
	var err error
	inRepoRoot(t, func() {
		err = mainErr([]string{"--workload", "corpus", "--seed", "3", "--seconds", "0.3", "--trace", "0", "--out", dir}, &stdout)
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if !strings.HasPrefix(lines[0], "host nproc=") || !strings.Contains(lines[0], "seed=3") {
		t.Errorf("first line %q is not the host stamp", lines[0])
	}
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(res) != 4 {
		t.Errorf("result keys %v, want correct, attempted, failed, metrics", sortedKeys(res))
	}
	var metrics map[string]metric
	if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(d.EndToEnd) {
		t.Errorf("%d metrics, want %d", len(metrics), len(d.EndToEnd))
	}
	if _, err := os.Stat(filepath.Join(dir, "corpus-seed3-trace0.json")); err != nil {
		t.Errorf("run record: %v", err)
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var stdout bytes.Buffer
	if err := mainErr([]string{"--workload", "nope"}, &stdout); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if strings.Contains(stdout.String(), "{") {
		t.Errorf("printed a result for a failed run: %q", stdout.String())
	}
}

// sortedKeys lists a map's keys in order, for deterministic subtests.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
