package main

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"agilefpga/internal/metrics"
)

// epoch anchors every wall-clock stamp the benchmark takes, so stamps
// are monotonic nanosecond offsets that fit an int64 comfortably.
var epoch = time.Now() //lint:wallclock the benchmark measures host wall time

// nowNS reads the wall clock as nanoseconds since epoch.
func nowNS() int64 {
	return int64(time.Since(epoch)) //lint:wallclock the benchmark measures host wall time
}

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks. xs is sorted in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// A completion is one finished request as the closed loop saw it.
type completion struct {
	doneNS int64 // completion stamp (nowNS)
	latNS  int64 // submit → verified result
}

// A window is one second of a timed run.
type window struct {
	rate     float64 // completions per second
	p50, p99 float64 // latency percentiles (µs)
	cpu      float64 // CPU µs per completion; -1 if unavailable
	n        int     // completions
}

// windowsFor splits a run into one-second windows.
func windowsFor(dur time.Duration) int { return max(1, int(dur/time.Second)) }

// windowsOf splits a timed run into its windows by completion time.
func windowsOf(load loadResult) []window {
	n := windowsFor(load.dur)
	width := int64(load.dur) / int64(n)
	lats := make([][]float64, n)
	for _, c := range load.completions {
		k := int((c.doneNS - load.start) / width)
		if c.doneNS >= load.start && k < n {
			lats[k] = append(lats[k], float64(c.latNS)/1e3)
		}
	}
	ws := make([]window, n)
	m := load.cpuMarks
	for k, l := range lats {
		ws[k] = window{rate: float64(len(l)) / (float64(width) / 1e9), p50: percentile(l, 0.5), p99: percentile(l, 0.99), cpu: -1, n: len(l)}
		if len(m) == n+1 && m[k] >= 0 && m[k+1] >= 0 {
			ws[k].cpu = float64(m[k+1]-m[k]) / 1e3 / max(1, float64(len(l)))
		}
	}
	return ws
}

// windowed is the summary of pooled windows: the median of each
// window figure, and the fewest latency samples any window held
// (p99 has ten samples beyond it from 1,000 on).
type windowed struct {
	throughput float64 // ops per second
	p50us      float64
	p99us      float64
	cpuUSPerOp float64 // -1 if unavailable
	samples    int
}

func summarise(ws []window) windowed {
	var rates, p50s, p99s, cpu []float64
	w := windowed{cpuUSPerOp: -1, samples: math.MaxInt}
	for _, x := range ws {
		rates = append(rates, x.rate)
		p50s = append(p50s, x.p50)
		p99s = append(p99s, x.p99)
		if x.cpu >= 0 {
			cpu = append(cpu, x.cpu)
		}
		w.samples = min(w.samples, x.n)
	}
	w.throughput, w.p50us, w.p99us = median(rates), median(p50s), median(p99s)
	if len(cpu) == len(ws) {
		w.cpuUSPerOp = median(cpu)
	}
	return w
}

// procCounters is one reading of the process-wide counters the traced
// run divides by completed requests.
type procCounters struct {
	readCalls  int64 // read syscalls; -1 when unavailable
	writeCalls int64 // write syscalls; -1 when unavailable
	numGC      uint32
	pauseNS    uint64
}

func readCounters() procCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := procCounters{numGC: ms.NumGC, pauseNS: ms.PauseTotalNs}
	c.readCalls, c.writeCalls = syscallCounts()
	return c
}

// syscallCounts reads the process's read and write syscall counts from
// /proc/self/io, or (-1, -1) where the platform has no such file.
func syscallCounts() (reads, writes int64) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return -1, -1
	}
	reads, writes = -1, -1
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ": ")
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
		if err != nil {
			continue
		}
		switch key {
		case "syscr":
			reads = n
		case "syscw":
			writes = n
		}
	}
	return reads, writes
}

// liveHeapMB forces a collection and reports the bytes of heap objects
// still reachable.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// A promSample is one series line of a Prometheus text exposition.
type promSample struct {
	name   string
	labels string // the raw label set, braces excluded
	value  float64
}

// parseProm reads the series lines of a Prometheus text exposition.
func parseProm(text []byte) []promSample {
	var out []promSample
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		s := promSample{name: line[:sp], value: v}
		if i := strings.IndexByte(s.name, '{'); i >= 0 {
			s.name, s.labels = s.name[:i], strings.TrimSuffix(s.name[i+1:], "}")
		}
		out = append(out, s)
	}
	return out
}

// promSum totals the samples called name whose label set satisfies keep
// (nil keeps every one).
func promSum(samples []promSample, name string, keep func(labels string) bool) float64 {
	var v float64
	for _, s := range samples {
		if s.name == name && (keep == nil || keep(s.labels)) {
			v += s.value
		}
	}
	return v
}

// mergedHistogram folds every series of the named histograms in regs
// into one snapshot.
func mergedHistogram(regs []*metrics.Registry, names ...string) (metrics.SeriesSnapshot, bool) {
	var snaps []metrics.SeriesSnapshot
	for _, r := range regs {
		for _, s := range r.Snapshot() {
			for _, n := range names {
				if s.Name == n {
					snaps = append(snaps, s)
				}
			}
		}
	}
	return metrics.MergeHistograms(snaps)
}

// addHistogram sums two snapshots of the same histogram.
func addHistogram(a, b metrics.SeriesSnapshot) metrics.SeriesSnapshot {
	if len(a.Buckets) != len(b.Buckets) {
		return b
	}
	s := a
	s.Buckets = append([]uint64(nil), a.Buckets...)
	for i, n := range b.Buckets {
		s.Buckets[i] += n
	}
	s.Count += b.Count
	s.Sum += b.Sum
	return s
}

// histogramDelta subtracts an earlier snapshot of the same histogram,
// leaving the observations made in between.
func histogramDelta(after, before metrics.SeriesSnapshot) metrics.SeriesSnapshot {
	d := after
	d.Buckets = append([]uint64(nil), after.Buckets...)
	if len(before.Buckets) == len(d.Buckets) {
		for i, b := range before.Buckets {
			d.Buckets[i] -= b
		}
		d.Count -= before.Count
		d.Sum -= before.Sum
	}
	return d
}
