package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"time"

	"aved/internal/core"
	"aved/internal/model"
	"aved/internal/obs"
	"aved/internal/scenarios"
	"aved/internal/sweep"
	"aved/internal/units"
)

// The sweep workload is what an analyst pays to regenerate the
// paper's figures: heavy sharing inside each grid (eval cache, budget
// chain seeds, frontier sets, fan-out across loads), the opposite of
// the corpus workload. Fig 7 exercises the job search; only the
// e-commerce grid reaches the multi-tier combine and frontier reuse.

// grid is one figure sweep the workload repeats. Each repetition binds
// the paper fixture and builds a fresh solver.
type grid struct {
	name string
	reps int // repetitions per pass
	// run sweeps once and returns the figure's TSV data rows and each
	// solved cell's stats.
	run func(ctx context.Context, opts core.Options, c call) ([]string, []core.Stats, error)
	// want is the reference the rows must match, loaded after the
	// window.
	want func() ([]string, error)
}

func sweepGrids(r *run) ([]*grid, error) {
	c := r.cfg.Sweep
	loads6, err := sweep.LinGrid(400, 5000, c.Fig6Loads)
	if err != nil {
		return nil, err
	}
	budgets6, err := sweep.LogGrid(0.1, 10000, c.Fig6Budgets)
	if err != nil {
		return nil, err
	}
	reqs7, err := sweep.LogGrid(1, 1000, c.Fig7Points)
	if err != nil {
		return nil, err
	}
	budgets8, err := sweep.LogGrid(0.1, 100, c.Fig8Budgets)
	if err != nil {
		return nil, err
	}
	// fig6On sweeps Fig. 6 on one paper service; curves adds the family
	// curve rows that the committed figure file carries after the cells.
	fig6On := func(svcOf func(*model.Infrastructure) (*model.Service, error), curves bool) func(context.Context, core.Options, call) ([]string, []core.Stats, error) {
		return func(ctx context.Context, opts core.Options, c call) ([]string, []core.Stats, error) {
			s, err := paperSolver(svcOf, opts, c)
			if err != nil {
				return nil, nil, err
			}
			sp := c.begin("sweep.Fig6")
			res, err := sweep.Fig6(ctx, s, loads6, budgets6)
			c.end(sp)
			if err != nil {
				return nil, nil, err
			}
			stats := make([]core.Stats, len(res.Points))
			for i, p := range res.Points {
				stats[i] = p.Stats
			}
			return fig6Rows(res, curves), stats, nil
		}
	}
	return []*grid{
		{
			name: "fig6", reps: c.Fig6Reps,
			run:  fig6On(scenarios.ApplicationTier, true),
			want: func() ([]string, error) { return tsvRows("results/fig6.tsv") },
		},
		{
			name: "fig6_ecommerce", reps: c.Fig6EcommerceReps,
			run: fig6On(scenarios.Ecommerce, false),
			want: func() ([]string, error) {
				return coldFig6Rows(scenarios.Ecommerce, loads6, budgets6)
			},
		},
		{
			name: "fig7", reps: c.Fig7Reps,
			run: func(ctx context.Context, opts core.Options, c call) ([]string, []core.Stats, error) {
				opts.FixedMechanisms = bronze()
				s, err := paperSolver(scenarios.Scientific, opts, c)
				if err != nil {
					return nil, nil, err
				}
				sp := c.begin("sweep.Fig7")
				pts, err := sweep.Fig7(ctx, s, reqs7)
				c.end(sp)
				if err != nil {
					return nil, nil, err
				}
				var (
					rows  []string
					stats []core.Stats
				)
				for _, p := range pts {
					rows = append(rows, fmt.Sprintf("%.3g\t%s\t%s\t%d\t%d\t%.3f\t%s\t%.2f\t%s",
						p.RequirementHours, p.Resource, p.Stack, p.NActive, p.NSpare,
						p.CheckpointHours, p.StorageLocation, p.JobTimeHours, p.Cost))
					stats = append(stats, p.Stats)
				}
				return rows, stats, nil
			},
			want: func() ([]string, error) { return tsvRows("results/fig7.tsv") },
		},
		{
			name: "fig8", reps: c.Fig8Reps,
			run: func(ctx context.Context, opts core.Options, c call) ([]string, []core.Stats, error) {
				s, err := paperSolver(scenarios.ApplicationTier, opts, c)
				if err != nil {
					return nil, nil, err
				}
				sp := c.begin("sweep.Fig8")
				curves, err := sweep.Fig8(ctx, s, []float64{400, 800, 1600, 3200}, budgets8)
				c.end(sp)
				if err != nil {
					return nil, nil, err
				}
				var (
					rows  []string
					stats []core.Stats
				)
				for _, cv := range curves {
					stats = append(stats, cv.BaselineStats)
					for _, p := range cv.Points {
						rows = append(rows, fmt.Sprintf("%.0f\t%.3g\t%s\t%s\t%s",
							cv.Load, p.BudgetMinutes, p.ExtraCost, p.TotalCost, cv.BaselineCost))
						stats = append(stats, p.Stats)
					}
				}
				return rows, stats, nil
			},
			want: func() ([]string, error) { return tsvRows("results/fig8.tsv") },
		},
	}, nil
}

// bronze pins maintenance contracts to bronze, the §5.2 setup of Fig 7.
func bronze() map[string]map[string]model.ParamValue {
	return map[string]map[string]model.ParamValue{
		"maintenanceA": {"level": model.EnumValue("bronze")},
		"maintenanceB": {"level": model.EnumValue("bronze")},
	}
}

// paperSolver binds the paper's Fig. 3 infrastructure and one of its
// services and builds a solver over them.
func paperSolver(svcOf func(*model.Infrastructure) (*model.Service, error), opts core.Options, c call) (*core.Solver, error) {
	sp := c.begin("model.bind")
	inf, err := scenarios.Infrastructure()
	if err != nil {
		return nil, err
	}
	svc, err := svcOf(inf)
	if err != nil {
		return nil, err
	}
	c.end(sp)
	opts.Registry = scenarios.Registry()
	return core.NewSolver(inf, svc, opts)
}

// fig6Rows renders a Fig. 6 result's data rows as avedsweep prints
// them: one row per feasible cell, then, with curves, each family
// curve.
func fig6Rows(res *sweep.Fig6Result, curves bool) []string {
	rows := make([]string, 0, len(res.Points)+64)
	for _, p := range res.Points {
		rows = append(rows, fmt.Sprintf("%.0f\t%.3g\t%s\t%s\t%.3f\t%s\t%d",
			p.Load, p.BudgetMinutes, p.Family, p.Stack, p.DowntimeMinutes, p.Cost, p.NActive))
	}
	if !curves {
		return rows
	}
	for _, c := range res.Curves {
		for j := range c.Loads {
			rows = append(rows, fmt.Sprintf("%.0f\t%.3f", c.Loads[j], c.Downtimes[j]))
		}
	}
	return rows
}

// coldFig6Rows is the reference for a Fig. 6 grid: every cell solved
// on its own fresh solver, with no sharing between cells.
func coldFig6Rows(svcOf func(*model.Infrastructure) (*model.Service, error), loads, budgets []float64) ([]string, error) {
	var rows []string
	for _, load := range loads {
		for _, budget := range budgets {
			s, err := paperSolver(svcOf, core.Options{}, call{})
			if err != nil {
				return nil, err
			}
			sol, err := s.Solve(model.Requirements{
				Kind:              model.ReqEnterprise,
				Throughput:        load,
				MaxAnnualDowntime: units.Duration(budget * float64(units.Minute)),
			})
			var infErr *core.InfeasibleError
			if errors.As(err, &infErr) {
				continue
			}
			if err != nil {
				return nil, err
			}
			td := &sol.Design.Tiers[0]
			rows = append(rows, fmt.Sprintf("%.0f\t%.3g\t%s\t%s\t%.3f\t%s\t%d",
				load, budget, sweep.FamilyOf(td), sweep.Stack(td), sol.DowntimeMinutes, sol.Cost, td.NActive))
		}
	}
	return rows, nil
}

// tsvRows reads a committed figure file's data rows: every line that
// is neither blank nor a comment.
func tsvRows(path string) ([]string, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reference rows: %w", err)
	}
	var rows []string
	for _, line := range strings.Split(string(buf), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rows = append(rows, line)
	}
	return rows, nil
}

func runSweep(r *run) (*outcome, error) {
	grids, err := sweepGrids(r)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	// Set-up warms every grid once, so the window starts with the
	// heap grown and the code paths faulted in.
	_, setup, err := timedSetup(r.cfg.Sweep.SetupRepeats, func() (struct{}, error) {
		for _, g := range grids {
			if _, _, err := g.run(ctx, core.Options{}, call{}); err != nil {
				return struct{}{}, fmt.Errorf("%s: %w", g.name, err)
			}
		}
		return struct{}{}, nil
	})
	if err != nil {
		return nil, err
	}
	// One pass runs each grid its reps times, in a seeded order.
	var schedule []int
	for gi, g := range grids {
		for k := 0; k < g.reps; k++ {
			schedule = append(schedule, gi)
		}
	}
	rng := rand.New(rand.NewSource(r.seed))

	out := &outcome{setup: setup}
	times := make([][]time.Duration, len(grids))
	renders := make([]map[string]int, len(grids)) // rendered rows → repetitions
	for gi := range grids {
		renders[gi] = map[string]int{}
	}
	var seq int64
	// window runs passes until the deadline, always finishing the first
	// so every grid has a sample; a traced window opens spans around
	// each grid's calls and sums the solver stats.
	window := func(d time.Duration, opts core.Options, spans *spanLog, totals *sweep.Totals) (int, error) {
		deadline := time.Now().Add(d)
		ops := 0
		for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
			rng.Shuffle(len(schedule), func(i, j int) { schedule[i], schedule[j] = schedule[j], schedule[i] })
			for _, gi := range schedule {
				if pass > 0 && !time.Now().Before(deadline) {
					break
				}
				g := grids[gi]
				seq++
				sp := spans.begin("grid."+g.name, -1, seq)
				start := time.Now()
				rows, stats, err := g.run(ctx, opts, call{spans, sp, seq})
				el := time.Since(start)
				spans.end(sp)
				if err != nil {
					return ops, fmt.Errorf("%s: %w", g.name, err)
				}
				ops++
				times[gi] = append(times[gi], el)
				renders[gi][strings.Join(rows, "\n")]++
				if totals != nil {
					for _, st := range stats {
						totals.Add(st)
					}
				}
			}
		}
		return ops, nil
	}

	if !r.trace {
		if _, err := window(r.window, core.Options{}, nil, nil); err != nil {
			return nil, err
		}
		med := make([]float64, len(grids))
		p90s := make([]float64, len(grids))
		var sum float64
		for gi, g := range grids {
			ms := durMS(times[gi])
			if len(ms) == 0 {
				return nil, fmt.Errorf("%s never ran in the window", g.name)
			}
			med[gi] = median(ms)
			p90s[gi] = quantile(ms, 0.9)
			sum += med[gi]
			out.name(g.name+"_ms", med[gi], "ms")
			out.notes = append(out.notes, fmt.Sprintf("sweep %s samples=%d p50_ms=%.4f p90_ms=%.4f p99_ms=%.4f",
				g.name, len(ms), med[gi], p90s[gi], quantile(ms, 0.99)))
		}
		out.throughput = 1000 / sum
		out.p50 = geomean(med...)
		out.p90 = geomean(p90s...)
	} else {
		untracedOps, err := window(r.window/2, core.Options{}, nil, nil)
		if err != nil {
			return nil, err
		}
		untraced := make([][]time.Duration, len(grids))
		for gi := range grids {
			untraced[gi], times[gi] = times[gi], nil
		}
		reg := obs.NewRegistry()
		spans := newSpanLog()
		var totals sweep.Totals
		before := readProbe()
		ops, err := window(r.window/2, core.Options{Timings: true, Metrics: reg}, spans, &totals)
		if err != nil {
			return nil, err
		}
		after := readProbe()
		out.layers = newLayers()
		out.spans = spans
		solveLayers(out.layers, &totals, ops, "")
		var all time.Duration
		for gi := range grids {
			all += sumDur(times[gi])
		}
		bind := spans.total("model.bind")
		setLayer(out.layers, "model.bind_ms", ratio(float64(bind)/1e6, float64(ops)))
		setLayer(out.layers, "model.bind_share", ratio(float64(bind), float64(all)))
		registryLayers(out.layers, obs.Snapshot{}, reg.Snapshot(), ops)
		goLayer(out.layers, before, after, ops)
		// The overhead compares each grid's traced and untraced mean,
		// then averages the ratios so no grid dominates.
		var logSum float64
		var n int
		for gi := range grids {
			if len(untraced[gi]) > 0 && len(times[gi]) > 0 {
				logSum += math.Log(meanDur(times[gi]) / meanDur(untraced[gi]))
				n++
			}
		}
		setLayer(out.layers, "bench.tracing_overhead", math.Exp(logSum/float64(max(n, 1)))-1)
		out.notes = append(out.notes, fmt.Sprintf("sweep untraced_ops=%d traced_ops=%d", untracedOps, ops))
		out.notes = append(out.notes, spans.selfTimeNotes()...)
	}

	// Check: every distinct rendering of a grid must match its
	// reference; a wrong rendering fails every repetition that
	// produced it.
	for gi, g := range grids {
		want, err := g.want()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", g.name, err)
		}
		if r.plant && gi == 0 {
			want[0] += "x"
		}
		wantJoined := strings.Join(want, "\n")
		for got, n := range renders[gi] {
			out.attempted += n
			if got != wantJoined {
				out.failed += n
				out.notes = append(out.notes, fmt.Sprintf("WRONG %s: %d repetitions differ from the reference", g.name, n))
			}
		}
	}
	return out, nil
}
