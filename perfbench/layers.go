package main

import (
	"strings"
	"time"

	"aved/internal/core"
	"aved/internal/obs"
	"aved/internal/sweep"
)

// perLayerNames lists every per-layer metric a traced run reports, on
// every workload; a layer a workload does not reach reads 0. The
// per-family suffixes apply to the corpus workload's model.*,
// core.phase.* and design_ms_p50 figures.
func perLayerNames() []string {
	names := []string{
		"model.bind_ms", "model.bind_share",
		"core.candidates", "core.evaluations", "core.eval_cache_hit_rate", "core.bound_pruned",
		"core.frontier_reuse", "core.warm_reuse", "sweep.point_ms_p50",
		"avail.memo_solves", "avail.memo_hit_rate", "avail.batch_solve_ms",
		"par.wait_ms", "par.run_ms",
		"sim.replications_per_estimate", "sim.batches_per_estimate", "sim.us_per_replication",
		"server.request_ms_p50", "server.request_ms_p99", "server.transport_ms_p50",
		"server.cache_hit_rate", "server.singleflight_joined", "server.rejected_429",
		"server.generator_lag_ms_p99",
		"go.allocs_per_op", "go.gc_cpu_share",
		"bench.tracing_overhead",
	}
	names = append(names, phaseMetricNames()...)
	for _, fam := range familyNames {
		names = append(names, "model.bind_ms."+fam, "model.bind_share."+fam, "design_ms_p50."+fam)
		for _, p := range phaseMetricNames() {
			names = append(names, p+"."+fam)
		}
	}
	return names
}

var familyNames = []string{"web", "batch", "telco", "storage"}

func phaseMetricNames() []string {
	var out []string
	for _, p := range core.PhaseNames() {
		out = append(out, "core.phase."+p+"_ms")
	}
	return out
}

// perLayerUnit gives a per-layer metric's unit from its name.
func perLayerUnit(name string) string {
	base := name
	for _, fam := range familyNames {
		base = strings.TrimSuffix(base, "."+fam)
	}
	switch {
	case strings.HasSuffix(base, "_share"), strings.HasSuffix(base, "_rate"), base == "bench.tracing_overhead":
		return "ratio"
	case strings.HasPrefix(base, "sim.us_"):
		return "us"
	case strings.Contains(base, "_ms"):
		return "ms"
	default:
		return "count/op"
	}
}

// newLayers returns every per-layer metric at zero, ready to fill.
func newLayers() map[string]metric {
	m := map[string]metric{}
	for _, n := range perLayerNames() {
		m[n] = metric{0, perLayerUnit(n)}
	}
	return m
}

func setLayer(m map[string]metric, name string, v float64) {
	m[name] = metric{v, perLayerUnit(name)}
}

// solveLayers fills the solver's per-layer metrics from summed
// Stats over ops operations. suffix selects a corpus family ("" for
// the whole workload); only the phase times carry it.
func solveLayers(m map[string]metric, t *sweep.Totals, ops int, suffix string) {
	n := float64(ops)
	for _, p := range core.PhaseNames() {
		setLayer(m, "core.phase."+p+"_ms"+suffix, ratio(float64(t.PhaseNanos[p])/1e6, n))
	}
	if suffix != "" {
		return
	}
	setLayer(m, "core.candidates", ratio(float64(t.Candidates), n))
	setLayer(m, "core.evaluations", ratio(float64(t.Evaluations), n))
	setLayer(m, "core.eval_cache_hit_rate", ratio(float64(t.EvalCacheHits), float64(t.EvalCacheHits+t.Evaluations)))
	setLayer(m, "core.bound_pruned", ratio(float64(t.BoundPruned), n))
	setLayer(m, "core.frontier_reuse", ratio(float64(t.FrontierReuse), n))
	setLayer(m, "core.warm_reuse", ratio(float64(t.WarmStartReuse), n))
	setLayer(m, "avail.memo_solves", ratio(float64(t.ModeMemoSolves), n))
	setLayer(m, "avail.memo_hit_rate", ratio(float64(t.ModeMemoHits), float64(t.ModeMemoHits+t.ModeMemoSolves)))
}

// registryLayers fills the metrics read from the program's registry
// between two snapshots: the birth–death batch solve time, the worker
// pool's queue wait and run time (all per operation) and the sweep's
// per-cell median.
func registryLayers(m map[string]metric, before, after obs.Snapshot, ops int) {
	n := float64(ops)
	setLayer(m, "avail.batch_solve_ms", ratio(histSum(after, before, "avail.batch_solve_ms"), n))
	setLayer(m, "par.wait_ms", ratio(histSum(after, before, "par.wait_ms"), n))
	setLayer(m, "par.run_ms", ratio(histSum(after, before, "par.run_ms"), n))
	if hs, ok := after.Histograms["sweep.point_ms"]; ok {
		setLayer(m, "sweep.point_ms_p50", histQuantile(hs, 0.5))
	}
}

// overhead is the traced run's slowdown: mean operation time traced
// over untraced, minus one.
func overhead(traced, untraced []time.Duration) float64 {
	return ratio(meanDur(traced), meanDur(untraced)) - 1
}

func meanDur(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return float64(s) / float64(len(ds))
}
