package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"aved/internal/obs"
)

// median returns the middle value of xs (mean of the middle two for
// an even count); 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics; 0 for none. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// durMS converts durations to milliseconds.
func durMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func geomean(xs ...float64) float64 {
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	kb := procStatusKB("VmHWM:")
	return float64(kb) / 1024
}

func procStatusKB(key string) int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, key) {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, key))
		if len(fields) == 0 {
			return 0
		}
		n, _ := strconv.ParseInt(fields[0], 10, 64)
		return n
	}
	return 0
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// runtimeProbe measures the Go runtime's allocation count and GC CPU
// time across a window.
type runtimeProbe struct {
	mallocs       uint64
	gcCPU, allCPU float64
}

var probeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:objects"},
}

func readProbe() runtimeProbe {
	s := append([]metrics.Sample(nil), probeSamples...)
	metrics.Read(s)
	var p runtimeProbe
	if s[0].Value.Kind() == metrics.KindFloat64 {
		p.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		p.allCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		p.mallocs = s[2].Value.Uint64()
	}
	return p
}

// goLayer reports go.allocs_per_op and go.gc_cpu_share between two
// probes over ops operations.
func goLayer(layers map[string]metric, before, after runtimeProbe, ops int) {
	layers["go.allocs_per_op"] = metric{ratio(float64(after.mallocs-before.mallocs), float64(ops)), "count/op"}
	layers["go.gc_cpu_share"] = metric{ratio(after.gcCPU-before.gcCPU, after.allCPU-before.allCPU), "ratio"}
}

// histQuantile estimates a quantile of a registry histogram,
// interpolating log-linearly inside the bucket that holds it (each
// bucket spans a factor of two).
func histQuantile(hs obs.HistogramSnapshot, q float64) float64 {
	if hs.Count == 0 {
		return 0
	}
	rank := q * float64(hs.Count)
	var seen float64
	for _, b := range hs.Buckets {
		c := float64(b.Count)
		if seen+c >= rank {
			frac := (rank - seen) / c
			return b.Le * math.Pow(2, frac-1)
		}
		seen += c
	}
	return hs.Buckets[len(hs.Buckets)-1].Le
}

// histSum is how much a registry histogram's sum grew between two
// snapshots.
func histSum(after, before obs.Snapshot, name string) float64 {
	return after.Histograms[name].Sum - before.Histograms[name].Sum
}
