package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// spanLog records the benchmark's own spans around each call into a
// layer of the program. Spans stay in memory and are written out when
// the run ends. A nil *spanLog records nothing, so untraced runs pay
// one nil check per boundary.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// span is one timed call: a name, its interval in nanoseconds since
// the log started, the span that caused it (-1 for a root) and the
// operation it belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil log).
func (l *spanLog) begin(name string, parent int, op int64) int {
	if l == nil {
		return -1
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	l.mu.Unlock()
	return id
}

// end closes span id.
func (l *spanLog) end(id int) {
	if l == nil || id < 0 {
		return
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	l.spans[id].End = now
	l.mu.Unlock()
}

// call is the span context of one traced call into a layer: the log,
// the span that caused it and its operation. The zero value (no log)
// records nothing.
type call struct {
	spans  *spanLog
	parent int
	op     int64
}

func (c call) begin(name string) int { return c.spans.begin(name, c.parent, c.op) }

func (c call) end(id int) { c.spans.end(id) }

// total sums the durations of every span called name.
func (l *spanLog) total(name string) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	var t time.Duration
	for _, s := range l.spans {
		if s.Name == name && s.End != 0 {
			t += time.Duration(s.End - s.Start)
		}
	}
	return t
}

// layerTime is one span name's aggregate: how often it ran, its total
// duration and its self time (duration minus the part its children
// cover).
type layerTime struct {
	Name    string
	Count   int
	TotalNs int64
	SelfNs  int64
}

// selfTimes aggregates the log by span name.
func (l *spanLog) selfTimes() []layerTime {
	l.mu.Lock()
	defer l.mu.Unlock()
	children := make(map[int][]int)
	for _, s := range l.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	agg := map[string]*layerTime{}
	for _, s := range l.spans {
		if s.End == 0 {
			continue
		}
		lt := agg[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			agg[s.Name] = lt
		}
		dur := s.End - s.Start
		lt.Count++
		lt.TotalNs += dur
		lt.SelfNs += dur - covered(s, l.spans, children[s.ID])
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered measures the union of the child spans' intervals clipped to
// the parent's, so overlapping children are not counted twice.
func covered(parent span, spans []span, kids []int) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		c := spans[k]
		if c.End == 0 {
			continue
		}
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			curB = max(curB, v.b)
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}

// durationsByOp maps each operation to the duration of its span
// called name.
func (l *spanLog) durationsByOp(name string) map[int64]time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := map[int64]time.Duration{}
	for _, s := range l.spans {
		if s.Name == name && s.End != 0 {
			out[s.Op] = time.Duration(s.End - s.Start)
		}
	}
	return out
}

// selfTimeNotes renders the self-time table as printable lines.
func (l *spanLog) selfTimeNotes() []string {
	var out []string
	for _, lt := range l.selfTimes() {
		out = append(out, fmt.Sprintf("span %-22s n=%-7d total_ms=%-12.3f self_ms=%.3f",
			lt.Name, lt.Count, float64(lt.TotalNs)/1e6, float64(lt.SelfNs)/1e6))
	}
	return out
}

// dump writes every span as one JSON line.
func (l *spanLog) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
