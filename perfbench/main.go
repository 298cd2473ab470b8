// Command perfbench is the repository benchmark: seeded workloads run
// against the simulated co-processor stack, with every output checked
// byte for byte against the host-software reference.
//
//	perfbench --workload cold-mix --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of one timed
// closed-loop run. With --trace 1 it reports per-layer metrics: the
// layer ladder (one request sequence replayed at every module's entry
// point), the counters of a traced run, and the tracing overhead. The
// last line of standard output is one JSON object; the lines before it
// are a human-readable account of the run. --workload all runs every
// workload in turn.
package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"agilefpga/internal/metrics"
	"agilefpga/internal/sim"
)

// runBudget bounds one invocation, leaving margin under the three
// minutes a run may take.
const runBudget = 170 * time.Second

// subRuns is how many fresh deployments one run builds and measures,
// each for an equal share of the measured time. Throughput, latency and
// CPU are medians over the pooled one-second windows of all of them, and
// setup_s is the median build time. A net-routed deployment can settle
// into a slower regime for its whole life (adjacent 3-second runs ranged
// from 19k to 32k ops/s), so no single deployment decides a run.
const subRuns = 5

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: cold-mix, hot-bulk, net-routed or all")
	seed := fs.Uint64("seed", 1, "seed the request sequence is drawn from")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	traced := fs.Int("trace", 0, "1 = per-layer run (ladder, counters, tracing overhead)")
	out := fs.String("out", ".bench_build", "directory for the span files of traced runs")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	var ws []*workload
	if *name == "all" {
		ws = workloads
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		ws = []*workload{w}
	}

	ctx, cancel := context.WithTimeout(context.Background(), runBudget*time.Duration(len(ws)))
	defer cancel()
	stdout := bufio.NewWriter(os.Stdout)
	defer stdout.Flush()
	total := &report{correct: true}
	for _, w := range ws {
		var rep *report
		var err error
		if *traced == 1 {
			rep, err = runTraced(ctx, w, *seed, time.Duration(*seconds)*time.Second, *out)
		} else {
			rep, err = runEndToEnd(ctx, w, *seed, time.Duration(*seconds)*time.Second)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		rep.print(stdout, w.name, *seed)
		if len(ws) > 1 {
			total.merge(w.name, rep)
		} else {
			total = rep
		}
	}
	line, err := total.json()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !total.correct {
		return 1
	}
	return 0
}

// A metric is one named figure with its unit.
type metric struct {
	name  string
	value float64
	unit  string
}

// A report is what one workload run prints.
type report struct {
	correct           bool
	attempted, failed int
	metrics           []metric
	notes             []string
}

func (r *report) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) merge(prefix string, o *report) {
	r.correct = r.correct && o.correct
	r.attempted += o.attempted
	r.failed += o.failed
	for _, m := range o.metrics {
		r.add(prefix+"."+m.name, m.value, m.unit)
	}
}

func (r *report) print(w *bufio.Writer, workload string, seed uint64) {
	fmt.Fprintf(w, "== %s seed %d: sent %d, succeeded %d, failed %d\n",
		workload, seed, r.attempted, r.attempted-r.failed, r.failed)
	for _, n := range r.notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "   %-36s %14.4f %s\n", m.name, m.value, m.unit)
	}
}

func (r *report) json() ([]byte, error) {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, r.correct, r.attempted, r.failed)
	for i, m := range r.metrics {
		name, _ := json.Marshal(m.name)
		unit, _ := json.Marshal(m.unit)
		value, err := json.Marshal(m.value)
		if err != nil {
			return nil, fmt.Errorf("metric %s: %w", m.name, err)
		}
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `%s: {"value": %s, "unit": %s}`, name, value, unit)
	}
	b.WriteString("}}")
	return b.Bytes(), nil
}

// prepare draws the seeded sequence and its reference outputs. This is
// the benchmark's own set-up and is not part of setup_s.
func prepare(w *workload, seed uint64) ([]request, error) {
	reqs := w.generate(seed, w.seqLen)
	if err := fillReferences(reqs); err != nil {
		return nil, err
	}
	return reqs, nil
}

// setUp builds and warms a deployment and returns the time that took,
// in seconds.
func setUp(ctx context.Context, w *workload, reqs []request, withMetrics bool) (*deployment, float64, error) {
	runtime.GC() // start every build from the same collector state
	t0 := nowNS()
	d, err := deploy(ctx, w, withMetrics)
	if err != nil {
		return nil, 0, err
	}
	if err := d.warm(ctx, reqs); err != nil {
		return nil, 0, errors.Join(err, d.close(ctx))
	}
	return d, float64(nowNS()-t0) / 1e9, nil
}

// replayVirtual issues reqs one at a time on a fresh deployment and
// returns the simulated latency of each (µs), a digest of the latency
// and output sequence, and how many outputs were wrong.
func replayVirtual(ctx context.Context, w *workload, reqs []request) ([]float64, string, int, error) {
	d, err := deploy(ctx, w, false)
	if err != nil {
		return nil, "", 0, err
	}
	h := sha256.New()
	lat := make([]float64, len(reqs))
	failed := 0
	var word [8]byte
	for i := range reqs {
		out, v, err := d.call(ctx, &reqs[i])
		if err != nil || !bytes.Equal(out, reqs[i].want) {
			failed++
		}
		lat[i] = float64(v.Nanoseconds()) / 1e3
		binary.LittleEndian.PutUint64(word[:], uint64(v))
		h.Write(word[:])
		h.Write(out)
	}
	return lat, hex.EncodeToString(h.Sum(nil)[:12]), failed, d.close(ctx)
}

// runEndToEnd is the untraced run: the virtual-time guard, then
// subRuns deployments, each built, warmed and measured in turn.
func runEndToEnd(ctx context.Context, w *workload, seed uint64, dur time.Duration) (*report, error) {
	reqs, err := prepare(w, seed)
	if err != nil {
		return nil, err
	}
	rep := &report{correct: true}

	var virtLat []float64
	if w.replay > 0 {
		var digests [2]string
		for k := range digests {
			lat, digest, failed, err := replayVirtual(ctx, w, reqs[:w.replay])
			if err != nil {
				return nil, err
			}
			rep.attempted += len(lat)
			rep.failed += failed
			digests[k], virtLat = digest, lat[w.warm:]
		}
		if digests[0] != digests[1] {
			rep.correct = false
			rep.note("virtual digest MISMATCH: %s vs %s", digests[0], digests[1])
		} else {
			rep.note("virtual digest %s (2 replays of %d requests agree)", digests[0], w.replay)
		}
	}

	var wins []window
	var setups, heaps []float64
	completed := 0
	var mallocs, allocBytes uint64
	var virtNet metrics.SeriesSnapshot
	for k := 0; k < subRuns; k++ {
		base := liveHeapMB() // the benchmark's own tables, before the system exists
		d, setupS, err := setUp(ctx, w, reqs, false)
		if err != nil {
			return nil, err
		}
		var regs []*metrics.Registry
		var virtBefore metrics.SeriesSnapshot
		if d.fl != nil {
			regs = d.fl.registries()
			virtBefore, _ = mergedHistogram(regs, "agile_request_seconds", "agile_chain_seconds")
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		load := d.runLoad(ctx, reqs, w.warm, dur/subRuns)
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		allocBytes += after.TotalAlloc - before.TotalAlloc
		if d.fl != nil {
			merged, _ := mergedHistogram(regs, "agile_request_seconds", "agile_chain_seconds")
			virtNet = addHistogram(virtNet, histogramDelta(merged, virtBefore))
			rep.note("deployment %d: router spills %d, client retries %d", k, d.fl.spills(), d.retries.Load())
		}
		wins = append(wins, windowsOf(load)...)
		completed += len(load.completions)
		load.completions = nil // the heap figure is the system's, not the samples'
		setups = append(setups, setupS)
		heaps = append(heaps, liveHeapMB()-base)
		if err := d.close(ctx); err != nil {
			return nil, err
		}
		rep.attempted += load.attempted
		rep.failed += load.failed
	}
	sum := summarise(wins)
	done := float64(completed)
	if done == 0 {
		return nil, errors.New("no request completed")
	}
	callers, outstanding := w.shape()
	rep.note("closed loop: %d callers × %d outstanding; %d deployments × %d one-second windows, ≥ %d latency samples each",
		callers, outstanding, subRuns, len(wins)/subRuns, sum.samples)
	rep.add("throughput_ops", sum.throughput, "1/s")
	rep.add("latency_p50_us", sum.p50us, "us")
	rep.add("latency_p99_us", sum.p99us, "us")
	if sum.cpuUSPerOp >= 0 {
		rep.add("cpu_us_per_op", sum.cpuUSPerOp, "us")
	} else {
		rep.note("cpu_us_per_op unavailable: no getrusage on this platform")
	}
	rep.add("allocs_per_op", float64(mallocs)/done, "count")
	rep.add("alloc_kb_per_op", float64(allocBytes)/1024/done, "KiB")
	rep.add("heap_inuse_mb", median(heaps), "MiB")
	// The virtual median is printed, not reported: on cold-mix it sits
	// on the boundary between the hit and miss modes (hit ratio ≈ 0.53)
	// and jumps between them from seed to seed. The mean is steady.
	var vMean, vP50, vP99 float64
	if w.replay > 0 {
		for _, v := range virtLat {
			vMean += v / float64(len(virtLat))
		}
		vP50, vP99 = percentile(virtLat, 0.5), percentile(virtLat, 0.99)
		rep.note("virtual latency over replay requests %d..%d (after the warm-up prefix)", w.warm, w.replay-1)
	} else {
		vMean = virtNet.Sum.Microseconds() / float64(max(1, virtNet.Count))
		vP50, vP99 = virtNet.Quantile(0.5).Microseconds(), virtNet.Quantile(0.99).Microseconds()
		rep.note("virtual latency from the backends' request histograms over %d observations", virtNet.Count)
	}
	rep.note("virtual_p50_us %.4f", vP50)
	rep.add("virtual_mean_us", vMean, "us")
	rep.add("virtual_p99_us", vP99, "us")
	rep.add("setup_s", median(setups), "s")
	if rep.failed > 0 {
		rep.correct = false
	}
	rep.note("error_frac %.6f (%d of %d)", float64(rep.failed)/float64(rep.attempted), rep.failed, rep.attempted)
	return rep, nil
}

// A traceLoad is the per-layer view of one timed run.
type traceLoad struct {
	throughput  float64
	ops         float64
	before, end procCounters
	prom        []promSample
	spills      uint64
	retries     uint64
	// batchWindows and batchJobs total the backends' batch-window
	// histogram (a size histogram, read raw rather than from the
	// text export, which renders every histogram in seconds).
	batchWindows, batchJobs uint64
	load                    loadResult
}

// measureLoad builds a deployment, runs the closed loop for dur and
// collects the counters the per-layer report needs.
func measureLoad(ctx context.Context, w *workload, reqs []request, dur time.Duration, withMetrics bool) (*traceLoad, error) {
	d, _, err := setUp(ctx, w, reqs, withMetrics)
	if err != nil {
		return nil, err
	}
	t := &traceLoad{before: readCounters()}
	t.load = d.runLoad(ctx, reqs, w.warm, dur)
	t.end = readCounters()
	t.ops = float64(t.load.attempted - t.load.failed)
	t.throughput = summarise(windowsOf(t.load)).throughput
	var text bytes.Buffer
	switch {
	case d.card != nil:
		err = d.card.Metrics().WritePrometheus(&text)
	case d.cl != nil:
		err = d.cl.Metrics().WritePrometheus(&text)
	default:
		for _, reg := range d.fl.registries() {
			if _, err = reg.WriteTo(&text); err != nil {
				break
			}
		}
		t.spills = d.fl.spills()
		t.retries = d.retries.Load()
		if h, ok := mergedHistogram(d.fl.registries(), "agile_net_batch_window_size"); ok {
			t.batchWindows, t.batchJobs = h.Count, uint64(h.Sum)
		}
	}
	t.prom = parseProm(text.Bytes())
	return t, errors.Join(err, d.close(ctx))
}

// runTraced is the per-layer run: an untraced and a traced closed-loop
// run of a quarter of the measured time each, then the layer ladder and
// the wire replay, which take about as long again.
func runTraced(ctx context.Context, w *workload, seed uint64, dur time.Duration, outDir string) (*report, error) {
	reqs, err := prepare(w, seed)
	if err != nil {
		return nil, err
	}
	rep := &report{correct: true}
	plain, err := measureLoad(ctx, w, reqs, dur/4, false)
	if err != nil {
		return nil, err
	}
	traced, err := measureLoad(ctx, w, reqs, dur/4, true)
	if err != nil {
		return nil, err
	}
	lreqs := reqs[:w.ladder]
	lad := newLadder(w, lreqs)
	if err := lad.run(ctx); err != nil {
		return nil, err
	}
	encNS, decNS, err := wireCost(lreqs)
	if err != nil {
		return nil, err
	}
	for _, l := range []*traceLoad{plain, traced} {
		rep.attempted += l.load.attempted
		rep.failed += l.load.failed
	}
	rep.attempted += lad.calls
	rep.failed += lad.failed
	rep.correct = rep.failed == 0

	path, err := writeSpans(outDir, w.name, seed, lad.spans, traced.load)
	if err != nil {
		return nil, err
	}
	rep.note("spans written to %s", path)
	layerMetrics(rep, lad, plain, traced, encNS, decNS)
	return rep, nil
}

// layerMetrics turns the ladder, the two timed runs and the wire replay
// into the per-layer report.
func layerMetrics(rep *report, lad *ladder, plain, traced *traceLoad, encNS, decNS float64) {
	r := lad.results
	n := float64(len(lad.reqs))
	self := map[string]float64{
		rungAlgos:    r[rungAlgos].perOpUS,
		rungCompress: r[rungCompress].perOpUS,
		rungMCU:      r[rungMCU].perOpUS - r[rungAlgos].perOpUS - r[rungCompress].perOpUS,
		rungCore:     r[rungCore].perOpUS - r[rungMCU].perOpUS,
		rungAPI:      r[rungAPI].perOpUS - r[rungCore].perOpUS,
		rungCluster:  r[rungCluster].perOpUS - r[rungAPI].perOpUS,
		rungServer:   r[rungServer].perOpUS - r[rungCluster].perOpUS,
		rungRouter:   r[rungRouter].perOpUS - r[rungServer].perOpUS,
	}
	var positive float64
	for _, v := range self {
		positive += max(v, 0)
	}
	rep.note("layer ladder over %d requests × %d repetitions (self = rung − rung below):", len(lad.reqs), ladderReps)
	for _, name := range rungOrder {
		if name == rungCoreReg {
			rep.note("  %-13s %10.2f µs/op  (registry on; overhead %.2f µs/op)", name, r[name].perOpUS, r[name].perOpUS-r[rungCore].perOpUS)
			continue
		}
		rep.note("  %-13s %10.2f µs/op  self %10.2f µs  share %5.1f%%", name, r[name].perOpUS, self[name], 100*max(self[name], 0)/positive)
	}
	share := func(names ...string) float64 {
		var v float64
		for _, s := range names {
			v += max(self[s], 0)
		}
		return 100 * v / positive
	}
	rep.note("  shares: algos %.1f%%, mcu+compress %.1f%%, server+wire+client+router %.1f%%",
		share(rungAlgos), share(rungMCU, rungCompress), share(rungServer, rungRouter))

	var stageExecs, decodes int
	for i := range lad.reqs {
		stageExecs += len(lad.reqs[i].ids)
		decodes += len(lad.cold[i])
	}
	st := lad.stats
	phase := func(p sim.Phase) float64 { return st.Phases.Get(p).Microseconds() / n }
	hitRatio := 0.0
	if st.Hits+st.Misses > 0 {
		hitRatio = float64(st.Hits) / float64(st.Hits+st.Misses)
	}
	rep.add("algos.self_us_per_op", self[rungAlgos], "us")
	rep.add("algos.stage_execs", float64(stageExecs), "count")
	rep.add("compress.decodes", float64(decodes), "count")
	rep.add("compress.self_us_per_op", self[rungCompress], "us")
	rep.add("mcu.self_us_per_op", self[rungMCU], "us")
	rep.add("mcu.hit_ratio", hitRatio, "ratio")
	rep.add("mcu.evictions", float64(st.Evictions), "count")
	rep.add("mcu.frames_loaded", float64(st.FramesLoaded), "count")
	rep.add("mcu.decode_cache_hits", float64(st.DecompCacheHits), "count")
	rep.add("mcu.chain_stages", float64(st.ChainStages), "count")
	rep.add("mcu.chain_handoff_bytes", float64(st.ChainHandoffBytes), "bytes")
	rep.add("mcu.virtual_rom_us_per_op", phase(sim.PhaseROM), "us")
	rep.add("mcu.virtual_decompress_us_per_op", phase(sim.PhaseDecompress), "us")
	rep.add("mcu.virtual_configure_us_per_op", phase(sim.PhaseConfigure), "us")
	rep.add("mcu.virtual_pipestall_us_per_op", phase(sim.PhasePipeStall), "us")
	rep.add("mcu.virtual_exec_us_per_op", phase(sim.PhaseExec), "us")
	rep.add("core.self_us_per_op", self[rungCore], "us")
	rep.add("core.allocs_per_op", r[rungCore].allocsPerOp-r[rungMCU].allocsPerOp, "count")
	rep.add("core.virtual_pci_us_per_op", lad.corePCI, "us")
	rep.add("api.self_us_per_op", self[rungAPI], "us")
	rep.add("api.allocs_per_op", r[rungAPI].allocsPerOp-r[rungCore].allocsPerOp, "count")

	// Counters of the traced run's registries; a layer the workload's
	// deployment does not contain reads zero.
	p := traced.prom
	perRun := 0.0
	if runs := promSum(p, "agile_cluster_coalesce_runs_total", nil); runs > 0 {
		perRun = promSum(p, "agile_cluster_coalesced_jobs_total", nil) / runs
	}
	batchJobs, dwellUS := 0.0, 0.0
	if windows := float64(traced.batchWindows); windows > 0 {
		batchJobs = float64(traced.batchJobs) / windows
		dwellUS = promSum(p, "agile_net_batch_dwell_ps_total", nil) / 1e6 / windows
	}
	refused := promSum(p, "agile_server_requests_total", func(l string) bool { return !strings.Contains(l, `status="ok"`) })
	rep.add("cluster.self_us_per_op", self[rungCluster], "us")
	rep.add("cluster.submit_to_done_us_p50", r[rungCluster].p50US, "us")
	rep.add("cluster.coalesced_jobs_per_run", perRun, "count")
	rep.add("cluster.rejected", promSum(p, "agile_cluster_rejected_total", nil), "count")
	rep.add("server.self_us_per_op", self[rungServer], "us")
	rep.add("server.batch_jobs_per_window", batchJobs, "count")
	rep.add("server.dwell_us_per_window", dwellUS, "us")
	rep.add("server.refused", refused, "count")
	rep.add("wire.encode_ns_per_frame", encNS, "ns")
	rep.add("wire.decode_ns_per_frame", decNS, "ns")
	rep.add("client.retries", float64(traced.retries), "count")

	perOp := func(a, b int64) float64 { return float64(b-a) / plain.ops }
	if plain.before.readCalls >= 0 && plain.end.readCalls >= 0 {
		rep.add("net.read_syscalls_per_op", perOp(plain.before.readCalls, plain.end.readCalls), "count")
		rep.add("net.write_syscalls_per_op", perOp(plain.before.writeCalls, plain.end.writeCalls), "count")
	} else {
		rep.note("net.read_syscalls_per_op and net.write_syscalls_per_op unavailable: no /proc/self/io")
	}
	rep.add("router.self_us_per_op", self[rungRouter], "us")
	rep.add("router.spill_ratio", float64(traced.spills)/traced.ops, "ratio")
	rep.add("router.hop_overhead_us_p50", r[rungRouter].p50US-r[rungServer].p50US, "us")
	rep.add("metrics.overhead_us_per_op", r[rungCoreReg].perOpUS-r[rungCore].perOpUS, "us")
	rep.add("metrics.allocs_per_op", r[rungCoreReg].allocsPerOp-r[rungCore].allocsPerOp, "count")
	kops := plain.ops / 1000
	rep.add("runtime.gc_cycles_per_kop", float64(plain.end.numGC-plain.before.numGC)/kops, "count")
	rep.add("runtime.gc_pause_us_per_kop", float64(plain.end.pauseNS-plain.before.pauseNS)/1e3/kops, "us")
	rep.add("bench.tracing_overhead_frac", 1-traced.throughput/plain.throughput, "ratio")
}

// writeSpans writes the ladder's spans and the traced run's request
// spans as JSON lines, once the run has ended.
func writeSpans(dir, workload string, seed uint64, spans []span, traced loadResult) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("perfbench-spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(w, `{"layer":%q,"rep":%d,"req":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			rungOrder[s.rung], s.rep, s.req, s.startNS, s.endNS)
	}
	for i, c := range traced.completions {
		fmt.Fprintf(w, `{"layer":"workload","rep":0,"req":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			i, c.doneNS-c.latNS, c.doneNS)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return "", err
	}
	return path, f.Close()
}
