// Command perfbench is Aved's end-to-end benchmark. It drives the
// design engine through its public entry points on one of four
// workloads and prints every metric by name with its unit, then one
// JSON result line:
//
//	go run . --workload corpus --seed 1 --seconds 10 --trace 0
//
// Workloads (see README.md for why each exists):
//
//	corpus    cold design (spec text → bind → solve) of every corpus scenario
//	sweep     the paper's Fig. 6/7/8 grids plus Fig. 6 on 3-tier e-commerce
//	serve     avedserver in process, open-loop HTTP what-if requests
//	simulate  Monte-Carlo validation of every feasible corpus design
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the run turns on the program's metrics registry and phase
// timings plus the benchmark's own spans, and reports the per-layer
// metrics. Answers are checked after the timed window.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

//go:embed config.json
var configJSON []byte

// config holds every workload parameter the benchmark fixes: grid
// sizes, offered rates, the serve latency limit and the simulator's
// precision target.
type config struct {
	DefaultSeed  int64 `json:"default_seed"`
	SetupRepeats int   `json:"setup_repeats"`
	// Corpus fixes the scenario population the corpus and simulate
	// workloads design; the workload seed only orders it.
	Corpus struct {
		Seed      int64 `json:"seed"`
		PerFamily int   `json:"per_family"`
	} `json:"corpus"`
	Sweep struct {
		SetupRepeats      int `json:"setup_repeats"`
		Fig6Loads         int `json:"fig6_loads"`
		Fig6Budgets       int `json:"fig6_budgets"`
		Fig7Points        int `json:"fig7_points"`
		Fig8Budgets       int `json:"fig8_budgets"`
		Fig6Reps          int `json:"fig6_reps_per_pass"`
		Fig6EcommerceReps int `json:"fig6_ecommerce_reps_per_pass"`
		Fig7Reps          int `json:"fig7_reps_per_pass"`
		Fig8Reps          int `json:"fig8_reps_per_pass"`
	} `json:"sweep"`
	Serve    serveConfig `json:"serve"`
	Simulate struct {
		Years   float64 `json:"years"`
		RelErr  float64 `json:"rel_err"`
		MaxReps int     `json:"max_reps"`
	} `json:"simulate"`
}

// serveConfig fixes the serve workload's traffic and its latency limit.
type serveConfig struct {
	Connections    int     `json:"connections"`
	CacheEntries   int     `json:"cache_entries"`
	HotPoints      int     `json:"hot_points"`
	HotShare       float64 `json:"hot_share"`
	EcommerceShare float64 `json:"ecommerce_share"`
	FixedRPS       float64 `json:"fixed_rps"`
	FixedShare     float64 `json:"fixed_share"`
	CapacityShare  float64 `json:"capacity_share"`
	LadderStartRPS float64 `json:"ladder_start_rps"`
	LadderFactor   float64 `json:"ladder_factor"`
	LadderSteps    int     `json:"ladder_steps"`
	P99LimitMS     float64 `json:"p99_limit_ms"`
	LagLimitMS     float64 `json:"lag_limit_ms"`
}

func loadConfig() (config, error) {
	var c config
	if err := json.Unmarshal(configJSON, &c); err != nil {
		return c, fmt.Errorf("config.json: %w", err)
	}
	return c, nil
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is one benchmark invocation's settings.
type run struct {
	cfg    config
	seed   int64
	window time.Duration
	trace  bool
	// plant, when set, corrupts one expected answer so tests can prove
	// the checks bite.
	plant bool
}

// outcome is what a workload reports back to main.
type outcome struct {
	attempted, failed int
	setup             []time.Duration
	// throughput, p50 and p90 are the workload's gated end-to-end rate
	// and per-operation times (see README.md for what each means per
	// workload); the p99s are printed by name.
	throughput, p50, p90 float64
	// named are the workload's own end-to-end numbers, printed by name.
	named []namedMetric
	// layers holds the per-layer metrics of a traced run.
	layers map[string]metric
	// spans is the traced run's span log.
	spans *spanLog
	// notes are extra human-readable lines (sample counts, self times).
	notes []string
}

type namedMetric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (o *outcome) name(name string, v float64, unit string) {
	o.named = append(o.named, namedMetric{name, v, unit})
}

var workloads = map[string]func(*run) (*outcome, error){
	"corpus":   runCorpus,
	"sweep":    runSweep,
	"serve":    runServe,
	"simulate": runSimulate,
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout io.Writer) error {
	cfg, err := loadConfig()
	if err != nil {
		return err
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "corpus, sweep, serve or simulate")
		seed     = fs.Int64("seed", cfg.DefaultSeed, "workload seed")
		seconds  = fs.Float64("seconds", 10, "length of the timed window")
		trace    = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		outDir   = fs.String("out", filepath.Join(".bench_build", "records"), "directory for the result record and span dump")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q (want corpus, sweep, serve or simulate)", *workload)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	r := &run{cfg: cfg, seed: *seed, window: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1}
	host := stampHost(*workload, *seed)
	fmt.Fprintln(stdout, host)
	out, err := fn(r)
	if err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}
	res := finish(r, out)
	for _, nm := range out.named {
		fmt.Fprintf(stdout, "metric %s %.6g %s\n", nm.Name, nm.Value, nm.Unit)
	}
	for _, line := range out.notes {
		fmt.Fprintln(stdout, line)
	}
	if err := writeRecord(*outDir, *workload, r, host, out, res); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// finish assembles the result line: the end-to-end metrics on an
// untraced run, the per-layer metrics on a traced one.
func finish(r *run, o *outcome) result {
	res := result{Correct: o.failed == 0 && o.attempted > 0, Attempted: o.attempted, Failed: o.failed}
	if r.trace {
		res.Metrics = o.layers
		return res
	}
	setup := make([]float64, len(o.setup))
	for i, d := range o.setup {
		setup[i] = d.Seconds()
	}
	success := 0.0
	if o.attempted > 0 {
		success = float64(o.attempted-o.failed) / float64(o.attempted)
	}
	res.Metrics = map[string]metric{
		"setup_s":          {median(setup), "s"},
		"success_rate":     {success, "ratio"},
		"peak_rss_mb":      {peakRSSMB(), "MB"},
		"throughput_per_s": {o.throughput, "1/s"},
		"op_ms_p50":        {o.p50, "ms"},
		"op_ms_p90":        {o.p90, "ms"},
	}
	return res
}

// hostStamp identifies the machine and inputs of a run.
type hostStamp struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
}

func stampHost(workload string, seed int64) hostStamp {
	return hostStamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Workload:   workload,
		Seed:       seed,
	}
}

func (h hostStamp) String() string {
	return fmt.Sprintf("host nproc=%d gomaxprocs=%d go=%s cpu=%q workload=%s seed=%d",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.Workload, h.Seed)
}

// writeRecord stores the run's full record (host stamp, named metrics,
// result, notes) and, on a traced run, the span dump.
func writeRecord(dir, workload string, r *run, host hostStamp, o *outcome, res result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", workload, r.seed, btoi(r.trace)))
	rec := struct {
		Host   hostStamp     `json:"host"`
		Named  []namedMetric `json:"named"`
		Result result        `json:"result"`
		Notes  []string      `json:"notes"`
	}{host, o.named, res, o.notes}
	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(buf, '\n'), 0o644); err != nil {
		return err
	}
	if o.spans != nil {
		// One dump per workload, the latest traced run's: a corpus dump
		// runs to tens of megabytes.
		return o.spans.dump(filepath.Join(dir, workload+".spans.jsonl"))
	}
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
