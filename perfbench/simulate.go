package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"aved/internal/avail"
	"aved/internal/core"
	"aved/internal/model"
	"aved/internal/scenarios"
	"aved/internal/sim"
)

// The simulate workload is Monte-Carlo validation: every feasible
// corpus design, solved in set-up with the Markov engine, is estimated
// by the discrete-event simulator at a fixed precision target, in an
// order drawn from the workload seed. Adaptive stopping lets simulator
// speed (replications per second) and time-to-answer (estimate time)
// move separately.

// simDesign is one design to validate and the Markov downtime its
// estimates must agree with.
type simDesign struct {
	name   string
	seed   int64
	design model.Design
	markov float64
}

func setupSimulate(r *run) ([]simDesign, error) {
	corpus, err := scenarios.GenCorpus(scenarios.CorpusConfig{Seed: r.cfg.Corpus.Seed, PerFamily: r.cfg.Corpus.PerFamily})
	if err != nil {
		return nil, err
	}
	markov := avail.NewMarkovEngine()
	var out []simDesign
	for i, sc := range corpus {
		sol, _, err := designScenario(sc, core.Options{}, nil, 0)
		if err != nil {
			return nil, err
		}
		if sol == nil {
			continue
		}
		tms, err := avail.BuildModels(&sol.Design)
		if err != nil {
			return nil, err
		}
		res, err := markov.Evaluate(tms)
		if err != nil {
			return nil, err
		}
		out = append(out, simDesign{sc.Name, int64(i) + 1, sol.Design, res.DowntimeMinutes})
	}
	rand.New(rand.NewSource(r.seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// estimate is one simulated design's outcome, kept for the check.
type estimate struct {
	design   int
	minutes  float64
	band     float64
	reps     uint64
	batches  uint64
	simTime  time.Duration
	wallTime time.Duration
}

// estimateDesign builds the design's tier models and simulates them
// on a fresh engine. Like the corpus differential gate, the simulator
// seed is the design's corpus position plus one, so every pass repeats
// the same work and the check is a fixed property of the code.
func estimateDesign(r *run, d *simDesign, op int64, spans *spanLog) (estimate, error) {
	start := time.Now()
	root := spans.begin("simulate.estimate", -1, op)
	bs := spans.begin("avail.BuildModels", root, op)
	tms, err := avail.BuildModels(&d.design)
	spans.end(bs)
	if err != nil {
		return estimate{}, err
	}
	c := r.cfg.Simulate
	eng, err := sim.NewEngine(d.seed, c.Years, c.MaxReps)
	if err != nil {
		return estimate{}, err
	}
	eng.WithWorkers(0).WithPrecision(c.RelErr, 0)
	ss := spans.begin("sim.EvaluateStats", root, op)
	simStart := time.Now()
	res, stats, err := eng.EvaluateStats(tms)
	simTime := time.Since(simStart)
	spans.end(ss)
	spans.end(root)
	if err != nil {
		return estimate{}, err
	}
	var hw2 float64
	for _, st := range stats {
		hw2 += st.HalfWidth95 * st.HalfWidth95
	}
	reps, batches := eng.RepStats()
	return estimate{
		minutes: res.DowntimeMinutes,
		// The corpus differential gate's band: three half-widths in
		// quadrature, 10% for the analytic chain's independence
		// approximations and a one-minute-per-year floor.
		band:     3*math.Sqrt(hw2) + 0.10*math.Max(d.markov, res.DowntimeMinutes) + 1.0,
		reps:     reps,
		batches:  batches,
		simTime:  simTime,
		wallTime: time.Since(start),
	}, nil
}

func runSimulate(r *run) (*outcome, error) {
	designs, setup, err := timedSetup(r.cfg.SetupRepeats, func() ([]simDesign, error) { return setupSimulate(r) })
	if err != nil {
		return nil, err
	}
	if len(designs) == 0 {
		return nil, fmt.Errorf("no feasible corpus design to simulate")
	}
	out := &outcome{setup: setup}
	var (
		ests []estimate
		seq  int64
	)
	// window runs whole passes over the designs until the deadline, so
	// every design weighs the same in the statistics; the last pass may
	// run past the deadline.
	window := func(d time.Duration, spans *spanLog) ([]estimate, time.Duration, error) {
		deadline := time.Now().Add(d)
		start := time.Now()
		var got []estimate
		for time.Now().Before(deadline) {
			for i := range designs {
				seq++
				e, err := estimateDesign(r, &designs[i], seq, spans)
				if err != nil {
					return nil, 0, fmt.Errorf("%s: %w", designs[i].name, err)
				}
				e.design = i
				got = append(got, e)
			}
		}
		ests = append(ests, got...)
		return got, time.Since(start), nil
	}
	wall := func(es []estimate) []time.Duration {
		out := make([]time.Duration, len(es))
		for i, e := range es {
			out[i] = e.wallTime
		}
		return out
	}
	var reps, batches uint64
	var simTime time.Duration

	if !r.trace {
		got, _, err := window(r.window, nil)
		if err != nil {
			return nil, err
		}
		// Each design's time is its median over the passes, so a host
		// slowdown during part of the run does not move it; the
		// percentiles then run over the designs, and the rate is the
		// replications of one pass over the sum of those times.
		byDesign := make([][]time.Duration, len(designs))
		var passReps uint64
		for _, e := range got {
			reps += e.reps
			byDesign[e.design] = append(byDesign[e.design], e.wallTime)
		}
		passes := len(got) / len(designs)
		passReps = reps / uint64(passes)
		med := make([]float64, len(designs))
		var sum float64
		for i, ts := range byDesign {
			med[i] = median(durMS(ts))
			sum += med[i]
		}
		out.throughput = float64(passReps) / (sum / 1000)
		out.p50, out.p90 = quantile(med, 0.5), quantile(med, 0.9)
		out.name("replications_per_s", out.throughput, "1/s")
		out.name("estimate_ms_p50", out.p50, "ms")
		out.name("estimate_ms_p99", quantile(med, 0.99), "ms")
		out.notes = append(out.notes, fmt.Sprintf("simulate designs=%d passes=%d estimates=%d replications=%d", len(designs), passes, len(got), reps))
	} else {
		untraced, _, err := window(r.window/2, nil)
		if err != nil {
			return nil, err
		}
		spans := newSpanLog()
		before := readProbe()
		traced, _, err := window(r.window/2, spans)
		if err != nil {
			return nil, err
		}
		after := readProbe()
		for _, e := range traced {
			reps += e.reps
			batches += e.batches
			simTime += e.simTime
		}
		n := float64(len(traced))
		out.layers = newLayers()
		out.spans = spans
		setLayer(out.layers, "sim.replications_per_estimate", ratio(float64(reps), n))
		setLayer(out.layers, "sim.batches_per_estimate", ratio(float64(batches), n))
		setLayer(out.layers, "sim.us_per_replication", ratio(float64(simTime)/1e3, float64(reps)))
		goLayer(out.layers, before, after, len(traced))
		setLayer(out.layers, "bench.tracing_overhead", overhead(wall(traced), wall(untraced)))
		out.notes = append(out.notes, spans.selfTimeNotes()...)
	}

	// Check every estimate against the Markov downtime.
	for k, e := range ests {
		out.attempted++
		want := designs[e.design].markov
		if r.plant && k == 0 {
			want += 2 * e.band
		}
		if diff := math.Abs(e.minutes - want); diff > e.band {
			out.failed++
			out.notes = append(out.notes, fmt.Sprintf("WRONG %s: sim %.3f vs markov %.3f min/yr, |diff| %.3f > band %.3f",
				designs[e.design].name, e.minutes, want, diff, e.band))
		}
	}
	return out, nil
}
