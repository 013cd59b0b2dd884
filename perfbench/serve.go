package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"aved/internal/core"
	"aved/internal/model"
	"aved/internal/obs"
	"aved/internal/scenarios"
	"aved/internal/server"
	"aved/internal/sweep"
	"aved/internal/units"
)

// The serve workload is what a client of avedserver sees: HTTP/JSON,
// admission, the flight group and the response cache are used only
// here. The server runs in process behind a loopback listener; an
// open-loop generator with a fixed number of connections offers
// requests on a schedule and times each from when it was due, so a
// stall also delays the requests behind it.

// serveReq is one what-if request: a point of the Fig. 6 load×budget
// plane on a paper service.
type serveReq struct {
	paper  string
	load   float64
	budget string
	body   []byte
}

// genRequests draws the hot points and n requests. About hotShare of
// the requests repeat one of the hot points and may be answered from
// the response cache; the rest are distinct points sent with noCache.
func genRequests(rng *rand.Rand, n, hot int, hotShare, ecomShare float64) (hots, reqs []serveReq, err error) {
	point := func(noCache bool) (serveReq, error) {
		paper := "apptier"
		if rng.Float64() < ecomShare {
			paper = "ecommerce"
		}
		load := math.Round(400 + rng.Float64()*4600)
		budget := strconv.FormatFloat(0.1*math.Pow(1e5, rng.Float64()), 'g', 6, 64) + "m"
		body, err := json.Marshal(server.SolveRequest{Paper: paper, Load: load, MaxDowntime: budget, NoCache: noCache})
		return serveReq{paper, load, budget, body}, err
	}
	hots = make([]serveReq, hot)
	for i := range hots {
		if hots[i], err = point(false); err != nil {
			return nil, nil, err
		}
	}
	reqs = make([]serveReq, n)
	for i := range reqs {
		if hot > 0 && rng.Float64() < hotShare {
			reqs[i] = hots[rng.Intn(hot)]
			continue
		}
		if reqs[i], err = point(true); err != nil {
			return nil, nil, err
		}
	}
	return hots, reqs, nil
}

// harness is an in-process avedserver on a loopback listener plus the
// client that drives it.
type harness struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	client *http.Client
	reg    *obs.Registry
	spans  atomic.Pointer[spanLog]
	served chan error
}

func startHarness(r *run) (*harness, error) {
	c := r.cfg.Serve
	h := &harness{reg: obs.NewRegistry(), served: make(chan error, 1)}
	// The server keeps avedserver's command-line defaults: 60 s request
	// deadline, 10 min cap, a 128-entry response cache.
	h.srv = server.New(server.Config{
		DefaultTimeout: 60 * time.Second,
		MaxTimeout:     10 * time.Minute,
		CacheSize:      c.CacheEntries,
		Metrics:        h.reg,
	})
	api := h.srv.Handler()
	h.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		// Traced runs open a span around the server's handling, a child
		// of the client's span for the same request.
		if spans := h.spans.Load(); spans != nil {
			parent, _ := strconv.Atoi(req.Header.Get("X-Perfbench-Span"))
			op, _ := strconv.ParseInt(req.Header.Get("X-Perfbench-Op"), 10, 64)
			id := spans.begin("server.handler", parent, op)
			defer spans.end(id)
		}
		api.ServeHTTP(w, req)
	})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h.url = "http://" + ln.Addr().String() + "/v1/solve"
	go func() { h.served <- h.hs.Serve(ln) }()
	h.client = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     c.Connections,
			MaxIdleConnsPerHost: c.Connections,
		},
	}
	return h, nil
}

// close stops the listener, drains the server and waits for the serve
// goroutine to return.
func (h *harness) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	h.srv.Close()
	h.client.CloseIdleConnections()
	if serr := <-h.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// sample is one request's outcome.
type sample struct {
	req     int           // index into the request list
	op      int64         // operation id, shared with the spans
	latency time.Duration // due → response read
	client  time.Duration // sent → response read
	lag     time.Duration // how late the generator sent it (0 when a backlog held it)
	status  int
	reply   reply
}

// reply is the part of a 200 the checks and the per-layer metrics use;
// keeping only it holds the benchmark's own memory out of peak RSS.
type reply struct {
	label  string
	cost   float64
	down   float64
	cached bool
	stats  *core.Stats // traced runs only
}

// openLoop sends n requests, starting at request index first, at rate
// requests per second over conns connections (rate 0 makes them all
// due at once: a closed loop). A connection that is free sleeps until
// the next request is due; one that is behind sends at once, and the
// wait counts in that request's latency. A non-zero until stops the
// connections sending once it passes; the result holds only the
// requests sent.
func (h *harness) openLoop(reqs []serveReq, first, n int, rate float64, conns int, spans *spanLog, until time.Time) []sample {
	out := make([]sample, n)
	start := time.Now().Add(time.Millisecond)
	var claim atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for until.IsZero() || time.Now().Before(until) {
				i := int(claim.Add(1) - 1)
				if i >= n {
					return
				}
				due := start
				if rate > 0 {
					due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				}
				s := &out[i]
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					s.lag = time.Since(due)
				}
				s.req, s.op = (first+i)%len(reqs), int64(first+i)
				sent := time.Now()
				s.status, s.reply = h.do(reqs[s.req].body, spans, s.op)
				done := time.Now()
				s.latency, s.client = done.Sub(due), done.Sub(sent)
			}
		}()
	}
	wg.Wait()
	return out[:min(int(claim.Load()), n)]
}

// do posts one request and decodes a 200 reply. Transport errors
// report status 0.
func (h *harness) do(body []byte, spans *spanLog, op int64) (int, reply) {
	req, err := http.NewRequest(http.MethodPost, h.url, bytes.NewReader(body))
	if err != nil {
		return 0, reply{}
	}
	id := spans.begin("http.request", -1, op)
	defer spans.end(id)
	if spans != nil {
		req.Header.Set("X-Perfbench-Span", strconv.Itoa(id))
		req.Header.Set("X-Perfbench-Op", strconv.FormatInt(op, 10))
	}
	res, err := h.client.Do(req)
	if err != nil {
		return 0, reply{}
	}
	defer res.Body.Close()
	buf, err := io.ReadAll(res.Body)
	if err != nil || res.StatusCode != http.StatusOK {
		return res.StatusCode, reply{}
	}
	var resp server.SolveResponse
	if err := json.Unmarshal(buf, &resp); err != nil {
		return 0, reply{}
	}
	rp := reply{label: resp.Label, cost: resp.CostPerYear, down: resp.DowntimeMinutes, cached: resp.Cached}
	if spans != nil {
		st := wireStats(resp.Stats)
		rp.stats = &st
	}
	return res.StatusCode, rp
}

// latencyMS lists the samples' latencies in milliseconds.
func latencyMS(ss []sample, f func(sample) time.Duration) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(f(s)) / float64(time.Millisecond)
	}
	return out
}

// warmRequests is how many requests each set-up sends before the
// window, closed loop.
const warmRequests = 1000

// maxSaturatedRPS sizes the closed-loop capacity phase's sample
// buffer: well above the rate two connections complete.
const maxSaturatedRPS = 15000

func okStatus(code int) bool { return code == http.StatusOK || code == http.StatusUnprocessableEntity }

func runServe(r *run) (*outcome, error) {
	c := r.cfg.Serve
	rng := rand.New(rand.NewSource(r.seed))
	fixedDur := time.Duration(float64(r.window) * c.FixedShare)
	capDur := time.Duration(float64(r.window) * c.CapacityShare)
	stepDur := (r.window - fixedDur - capDur) / time.Duration(max(c.LadderSteps, 1))
	if r.trace {
		fixedDur = r.window / 2
	}
	// Enough requests for the fixed phase and the whole ladder; the
	// generator wraps around if a run needs more.
	need := c.FixedRPS*fixedDur.Seconds() + warmRequests
	for k := 0; k < c.LadderSteps; k++ {
		need += c.LadderStartRPS * math.Pow(c.LadderFactor, float64(k)) * stepDur.Seconds()
	}
	hots, reqs, err := genRequests(rng, int(need)+1, c.HotPoints, c.HotShare, c.EcommerceShare)
	if err != nil {
		return nil, err
	}
	// Set-up starts a server and warms it up closed loop: the hot
	// points' cache-filling misses, then warmRequests ordinary ones.
	var spare []*harness
	h, setup, err := timedSetup(r.cfg.SetupRepeats, func() (*harness, error) {
		h, err := startHarness(r)
		if err != nil {
			return nil, err
		}
		spare = append(spare, h)
		h.openLoop(hots, 0, len(hots), 0, c.Connections, nil, time.Time{})
		h.openLoop(reqs, len(reqs)-warmRequests, warmRequests, 0, c.Connections, nil, time.Time{})
		return h, nil
	})
	defer func() {
		for _, h := range spare {
			h.close()
		}
	}()
	if err != nil {
		return nil, err
	}
	// Only the last set-up's server stays up; close the others now.
	for _, h := range spare[:len(spare)-1] {
		if err := h.close(); err != nil {
			return nil, err
		}
	}
	spare = spare[len(spare)-1:]

	out := &outcome{setup: setup}
	var all []sample
	cursor := 0
	phase := func(rate float64, d time.Duration, spans *spanLog) []sample {
		ss := h.openLoop(reqs, cursor, int(rate*d.Seconds()), rate, c.Connections, spans, time.Time{})
		cursor += len(ss)
		all = append(all, ss...)
		return ss
	}

	if !r.trace {
		fixed := phase(c.FixedRPS, fixedDur, nil)
		lat := latencyMS(fixed, func(s sample) time.Duration { return s.latency })
		out.p50, out.p90 = quantile(lat, 0.5), quantile(lat, 0.9)
		saturated := h.openLoop(reqs, cursor, int(maxSaturatedRPS*capDur.Seconds()), 0, c.Connections, nil, time.Now().Add(capDur))
		cursor += len(saturated)
		all = append(all, saturated...)
		out.throughput = float64(len(saturated)) / capDur.Seconds()
		slo := sloSearch(c, stepDur, phase, &out.notes)
		out.name("latency_ms_p50", out.p50, "ms")
		out.name("latency_ms_p99", quantile(lat, 0.99), "ms")
		out.name("capacity_rps", out.throughput, "1/s")
		out.name("slo_rps", slo, "1/s")
		out.notes = append(out.notes, fmt.Sprintf("serve fixed_rps=%g requests=%d saturated_requests=%d", c.FixedRPS, len(fixed), len(saturated)))
	} else {
		untraced := phase(c.FixedRPS, fixedDur, nil)
		spans := newSpanLog()
		h.spans.Store(spans)
		regBefore := h.reg.Snapshot()
		before := readProbe()
		traced := phase(c.FixedRPS, fixedDur, spans)
		after := readProbe()
		h.spans.Store(nil)
		regAfter := h.reg.Snapshot()
		out.layers = newLayers()
		out.spans = spans
		serveLayers(out.layers, traced, spans, regBefore, regAfter)
		goLayer(out.layers, before, after, len(traced))
		setLayer(out.layers, "bench.tracing_overhead", overhead(clientTimes(traced), clientTimes(untraced)))
		out.notes = append(out.notes, spans.selfTimeNotes()...)
	}

	// Check every reply against a library solve of the same
	// requirement.
	want, err := libraryAnswers(reqs, all, c.Connections)
	if err != nil {
		return nil, err
	}
	wrong := 0
	for _, s := range all {
		out.attempted++
		w := want[s.req]
		if r.plant && s.req == all[0].req {
			w = answer{feasible: !w.feasible}
		}
		if !replyMatches(s, w) {
			out.failed++
			if wrong++; wrong <= 5 {
				out.notes = append(out.notes, fmt.Sprintf("WRONG %s load=%g budget=%s: status %d %q, library %v",
					reqs[s.req].paper, reqs[s.req].load, reqs[s.req].budget, s.status, s.reply.label, w))
			}
		}
	}
	return out, nil
}

func clientTimes(ss []sample) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = s.client
	}
	return out
}

// sloSearch steps the offered rate up from the ladder's start until
// two steps in a row miss the latency limit (one miss alone can be a
// host stall, not a backlog), then interpolates, log-linearly in p99,
// between the last step that met the limit and the first of the two
// that did not.
func sloSearch(c serveConfig, stepDur time.Duration, phase func(float64, time.Duration, *spanLog) []sample, notes *[]string) float64 {
	var (
		rates, p99s []float64
		pass        []bool
	)
	rate := c.LadderStartRPS
	for k := 0; k < c.LadderSteps; k++ {
		ss := phase(rate, stepDur, nil)
		p99 := quantile(latencyMS(ss, func(s sample) time.Duration { return s.latency }), 0.99)
		lag := quantile(latencyMS(ss, func(s sample) time.Duration { return s.lag }), 0.99)
		ok := p99 <= c.P99LimitMS && lag <= c.LagLimitMS
		for _, s := range ss {
			ok = ok && okStatus(s.status)
		}
		*notes = append(*notes, fmt.Sprintf("serve step rps=%.1f requests=%d p99_ms=%.3f lag_p99_ms=%.3f pass=%v", rate, len(ss), p99, lag, ok))
		rates, p99s, pass = append(rates, rate), append(p99s, p99), append(pass, ok)
		if k > 0 && !ok && !pass[k-1] {
			break
		}
		rate *= c.LadderFactor
	}
	// The knee is the first of the final run of misses.
	knee := len(pass)
	for knee > 0 && !pass[knee-1] {
		knee--
	}
	switch {
	case knee == len(pass):
		// Every step met the limit: the ladder's top is a lower bound.
		return rates[knee-1]
	case knee == 0:
		// Even the first step missed: scale its rate by how far over
		// the limit it ran.
		return rates[0] * c.P99LimitMS / math.Max(p99s[0], c.P99LimitMS)
	}
	lo, hi := knee-1, knee
	frac := 1.0
	if p99s[hi] > p99s[lo] && p99s[hi] > c.P99LimitMS {
		frac = (math.Log(c.P99LimitMS) - math.Log(math.Max(p99s[lo], 1e-3))) / (math.Log(p99s[hi]) - math.Log(math.Max(p99s[lo], 1e-3)))
	}
	return rates[lo] + (rates[hi]-rates[lo])*math.Min(math.Max(frac, 0), 1)
}

// serveLayers fills the serve workload's per-layer metrics from the
// traced phase: server-side and transport times from the spans,
// solver effort from the replies' stats, pool and cache activity from
// the server's registry.
func serveLayers(m map[string]metric, ss []sample, spans *spanLog, before, after obs.Snapshot) {
	n := len(ss)
	handler := spans.durationsByOp("server.handler")
	var serverMS, transportMS, lagMS []float64
	var coldHandler time.Duration
	cold, rejected := 0, 0
	var t sweep.Totals
	for _, s := range ss {
		lagMS = append(lagMS, float64(s.lag)/float64(time.Millisecond))
		if s.status == http.StatusTooManyRequests {
			rejected++
		}
		hd, ok := handler[s.op]
		if !ok {
			continue
		}
		serverMS = append(serverMS, float64(hd)/float64(time.Millisecond))
		transportMS = append(transportMS, float64(s.client-hd)/float64(time.Millisecond))
		if s.status == http.StatusOK && !s.reply.cached {
			cold++
			coldHandler += hd
			t.Add(*s.reply.stats)
		}
	}
	solveMS := histSum(after, before, "core.solve_ms")
	outside := float64(coldHandler)/float64(time.Millisecond) - solveMS
	setLayer(m, "model.bind_ms", ratio(outside, float64(cold)))
	setLayer(m, "model.bind_share", ratio(outside, float64(coldHandler)/float64(time.Millisecond)))
	solveLayers(m, &t, n, "")
	registryLayers(m, before, after, n)
	count := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	setLayer(m, "server.request_ms_p50", quantile(serverMS, 0.5))
	setLayer(m, "server.request_ms_p99", quantile(serverMS, 0.99))
	setLayer(m, "server.transport_ms_p50", quantile(transportMS, 0.5))
	setLayer(m, "server.cache_hit_rate", ratio(count("server.cache_hits"), count("server.requests")))
	setLayer(m, "server.singleflight_joined", ratio(count("server.singleflight_joined"), float64(n)))
	setLayer(m, "server.rejected_429", ratio(float64(rejected), float64(n)))
	setLayer(m, "server.generator_lag_ms_p99", quantile(lagMS, 0.99))
}

// wireStats converts a reply's search stats back to core.Stats.
func wireStats(w server.SearchStats) core.Stats {
	return core.Stats{
		CandidatesGenerated: w.Candidates,
		CostPruned:          w.CostPruned,
		BoundPruned:         w.BoundPruned,
		Evaluations:         w.Evaluations,
		EvalCacheHits:       w.EvalCacheHits,
		WarmStartReuse:      w.WarmStartReuse,
		ModeMemoHits:        w.ModeMemoHits,
		ModeMemoSolves:      w.ModeMemoSolves,
		PhaseNanos:          w.PhaseNanos,
	}
}

// libraryAnswers solves every distinct requested point with the
// library on a fresh solver, the answers the replies must match. The
// solves are independent, so they share out over one goroutine per
// client connection.
func libraryAnswers(reqs []serveReq, ss []sample, workers int) (map[int]answer, error) {
	type key struct {
		paper, budget string
		load          float64
	}
	var distinct []int
	seen := map[key]int{}
	byReq := map[int]int{} // request index → its distinct point
	for _, s := range ss {
		if _, ok := byReq[s.req]; ok {
			continue
		}
		q := reqs[s.req]
		k := key{q.paper, q.budget, q.load}
		d, ok := seen[k]
		if !ok {
			d = len(distinct)
			seen[k] = d
			distinct = append(distinct, s.req)
		}
		byReq[s.req] = d
	}
	answers := make([]answer, len(distinct))
	errs := make([]error, len(distinct))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < max(workers, 1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				d := int(next.Add(1) - 1)
				if d >= len(distinct) {
					return
				}
				answers[d], errs[d] = librarySolve(reqs[distinct[d]])
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	out := make(map[int]answer, len(byReq))
	for req, d := range byReq {
		out[req] = answers[d]
	}
	return out, nil
}

func librarySolve(q serveReq) (answer, error) {
	svcOf := scenarios.ApplicationTier
	if q.paper == "ecommerce" {
		svcOf = scenarios.Ecommerce
	}
	s, err := paperSolver(svcOf, core.Options{}, call{})
	if err != nil {
		return answer{}, err
	}
	d, err := units.ParseDuration(q.budget)
	if err != nil {
		return answer{}, err
	}
	sol, err := s.Solve(model.Requirements{Kind: model.ReqEnterprise, Throughput: q.load, MaxAnnualDowntime: d})
	var infErr *core.InfeasibleError
	if errors.As(err, &infErr) {
		return answer{}, nil
	}
	if err != nil {
		return answer{}, fmt.Errorf("library solve %s load=%g budget=%s: %w", q.paper, q.load, q.budget, err)
	}
	return answerOf(sol), nil
}

// replyMatches accepts a 200 whose design, cost and downtime equal the
// library's, and a 422 exactly where the library finds no design.
func replyMatches(s sample, want answer) bool {
	switch s.status {
	case http.StatusOK:
		return want.feasible && s.reply.label == want.label &&
			s.reply.cost == float64(want.cost) && s.reply.down == want.down
	case http.StatusUnprocessableEntity:
		return !want.feasible
	default:
		return false
	}
}
