package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"aved/internal/core"
	"aved/internal/model"
	"aved/internal/obs"
	"aved/internal/scenarios"
	"aved/internal/sweep"
	"aved/internal/units"
)

// The corpus workload is what a designer or a CLI run pays: every
// scenario of the seeded corpus goes spec text → bind → fresh solver →
// Solve, with nothing shared between designs. Telco chains reach the
// multi-tier combine; web and storage are bind-heavy single tiers;
// batch spends its time in the job search.

// answer is the part of a solution the checks compare.
type answer struct {
	feasible bool
	cost     units.Money
	down     float64
	job      units.Duration
	label    string
}

func answerOf(sol *core.Solution) answer {
	if sol == nil {
		return answer{}
	}
	return answer{true, sol.Cost, sol.DowntimeMinutes, sol.JobTime, sol.Design.Label()}
}

func (a answer) String() string {
	if !a.feasible {
		return "infeasible"
	}
	return fmt.Sprintf("%v %.6f %v %s", a.cost, a.down, a.job, a.label)
}

// designTiming splits one design's wall time.
type designTiming struct {
	bind, total time.Duration
}

// designScenario binds a scenario from its spec text and solves it on
// a fresh solver. Infeasibility is an answer, not an error.
func designScenario(sc *scenarios.CorpusScenario, opts core.Options, spans *spanLog, op int64) (*core.Solution, designTiming, error) {
	var dt designTiming
	start := time.Now()
	root := spans.begin("corpus.design", -1, op)
	bs := spans.begin("model.bind", root, op)
	inf, err := model.ParseInfrastructure(sc.InfSpec)
	if err != nil {
		return nil, dt, err
	}
	svc, err := model.ParseService(sc.SvcSpec)
	if err != nil {
		return nil, dt, err
	}
	if err := svc.Resolve(inf); err != nil {
		return nil, dt, err
	}
	if svc.Reqs == nil {
		return nil, dt, fmt.Errorf("%s: spec has no requirements clause", sc.Name)
	}
	spans.end(bs)
	dt.bind = time.Since(start)
	ss := spans.begin("core.solve", root, op)
	opts.Registry = sc.Registry
	s, err := core.NewSolver(inf, svc, opts)
	if err != nil {
		return nil, dt, err
	}
	sol, err := s.Solve(*svc.Reqs)
	spans.end(ss)
	spans.end(root)
	dt.total = time.Since(start)
	var infErr *core.InfeasibleError
	if errors.As(err, &infErr) {
		return nil, dt, nil
	}
	return sol, dt, err
}

// setupCorpus generates the corpus and a visiting order, drawn from
// the workload seed, that interleaves the families, then designs every
// scenario once so the window starts with the heap grown and the code
// paths faulted in.
func setupCorpus(r *run) ([]*scenarios.CorpusScenario, []int, error) {
	corpus, err := scenarios.GenCorpus(scenarios.CorpusConfig{Seed: r.cfg.Corpus.Seed, PerFamily: r.cfg.Corpus.PerFamily})
	if err != nil {
		return nil, nil, err
	}
	for _, sc := range corpus {
		if _, _, err := designScenario(sc, core.Options{}, nil, 0); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", sc.Name, err)
		}
	}
	order := rand.New(rand.NewSource(r.seed)).Perm(len(corpus))
	return corpus, order, nil
}

// timedSetup runs a workload's set-up repeats times, each from a
// freshly collected heap, and returns the last result with every
// repetition's time.
func timedSetup[T any](repeats int, fn func() (T, error)) (T, []time.Duration, error) {
	var (
		v     T
		times []time.Duration
	)
	for i := 0; i < max(repeats, 1); i++ {
		runtime.GC()
		start := time.Now()
		var err error
		v, err = fn()
		if err != nil {
			return v, nil, err
		}
		times = append(times, time.Since(start))
	}
	return v, times, nil
}

func runCorpus(r *run) (*outcome, error) {
	type prepared struct {
		corpus []*scenarios.CorpusScenario
		order  []int
	}
	p, setup, err := timedSetup(r.cfg.SetupRepeats, func() (prepared, error) {
		c, o, err := setupCorpus(r)
		return prepared{c, o}, err
	})
	if err != nil {
		return nil, err
	}
	corpus, order := p.corpus, p.order
	famOf := func(sc *scenarios.CorpusScenario) int { return int(sc.Family) - 1 }

	out := &outcome{setup: setup}
	first := make([]*answer, len(corpus)) // first answer seen per scenario
	opsOf := make([]int, len(corpus))     // designs run per scenario
	mismatched := 0                       // designs whose answer moved between passes
	var (
		seq int64
		all sweep.Totals // traced designs' solver stats
	)

	// pass runs designs in visiting order until the deadline. traced
	// runs collect per-family timings and solver stats.
	type famAgg struct {
		bind, total []time.Duration
		totals      sweep.Totals
	}
	pass := func(deadline time.Time, opts core.Options, spans *spanLog, fams *[4]famAgg) ([]time.Duration, time.Duration, error) {
		var durs []time.Duration
		start := time.Now()
		for k := 0; time.Now().Before(deadline); k++ {
			i := order[k%len(order)]
			sc := corpus[i]
			seq++
			sol, dt, err := designScenario(sc, opts, spans, seq)
			if err != nil {
				return nil, 0, fmt.Errorf("%s: %w", sc.Name, err)
			}
			durs = append(durs, dt.total)
			opsOf[i]++
			a := answerOf(sol)
			if first[i] == nil {
				first[i] = &a
			} else if a != *first[i] {
				mismatched++
			}
			if fams != nil {
				f := &fams[famOf(sc)]
				f.bind = append(f.bind, dt.bind)
				f.total = append(f.total, dt.total)
				if sol != nil {
					f.totals.Add(sol.Stats)
					all.Add(sol.Stats)
				}
			}
		}
		return durs, time.Since(start), nil
	}

	if !r.trace {
		durs, elapsed, err := pass(time.Now().Add(r.window), core.Options{}, nil, nil)
		if err != nil {
			return nil, err
		}
		ms := durMS(durs)
		out.throughput = float64(len(durs)) / elapsed.Seconds()
		out.p50, out.p90 = quantile(ms, 0.5), quantile(ms, 0.9)
		out.name("designs_per_s", out.throughput, "1/s")
		out.name("design_ms_p50", out.p50, "ms")
		out.name("design_ms_p99", quantile(ms, 0.99), "ms")
		out.notes = append(out.notes, fmt.Sprintf("corpus scenarios=%d designs=%d window_s=%.3f", len(corpus), len(durs), elapsed.Seconds()))
	} else {
		untraced, _, err := pass(time.Now().Add(r.window/2), core.Options{}, nil, nil)
		if err != nil {
			return nil, err
		}
		reg := obs.NewRegistry()
		spans := newSpanLog()
		var fams [4]famAgg
		before := readProbe()
		traced, _, err := pass(time.Now().Add(r.window/2), core.Options{Timings: true, Metrics: reg}, spans, &fams)
		if err != nil {
			return nil, err
		}
		after := readProbe()
		out.layers = newLayers()
		out.spans = spans
		var bindAll, totalAll time.Duration
		for fi, f := range fams {
			suffix := "." + familyNames[fi]
			solveLayers(out.layers, &f.totals, len(f.total), suffix)
			b, t := sumDur(f.bind), sumDur(f.total)
			bindAll += b
			totalAll += t
			setLayer(out.layers, "model.bind_ms"+suffix, ratio(float64(b)/1e6, float64(len(f.bind))))
			setLayer(out.layers, "model.bind_share"+suffix, ratio(float64(b), float64(t)))
			setLayer(out.layers, "design_ms_p50"+suffix, median(durMS(f.total)))
		}
		solveLayers(out.layers, &all, len(traced), "")
		setLayer(out.layers, "model.bind_ms", ratio(float64(bindAll)/1e6, float64(len(traced))))
		setLayer(out.layers, "model.bind_share", ratio(float64(bindAll), float64(totalAll)))
		registryLayers(out.layers, obs.Snapshot{}, reg.Snapshot(), len(traced))
		goLayer(out.layers, before, after, len(traced))
		setLayer(out.layers, "bench.tracing_overhead", overhead(traced, untraced))
		out.notes = append(out.notes, spans.selfTimeNotes()...)
	}

	// Check every scenario designed in the window against the
	// exhaustive reference walk.
	for i, sc := range corpus {
		out.attempted += opsOf[i]
		if first[i] == nil {
			continue
		}
		want, err := exhaustiveAnswer(sc)
		if err != nil {
			return nil, err
		}
		if r.plant && i == order[0] {
			want.cost++
		}
		if want != *first[i] {
			out.failed += opsOf[i]
			out.notes = append(out.notes, fmt.Sprintf("WRONG %s: got %v, exhaustive %v", sc.Name, *first[i], want))
		}
	}
	// A scenario both wrong and unstable would count twice.
	out.failed = min(out.failed+mismatched, out.attempted)
	return out, nil
}

func exhaustiveAnswer(sc *scenarios.CorpusScenario) (answer, error) {
	sol, _, err := designScenario(sc, core.Options{Search: core.SearchExhaustive}, nil, 0)
	if err != nil {
		return answer{}, fmt.Errorf("%s exhaustive: %w", sc.Name, err)
	}
	return answerOf(sol), nil
}

func sumDur(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}
