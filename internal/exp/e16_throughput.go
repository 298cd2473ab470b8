package exp

import (
	"fmt"
	"time"

	"agilefpga/internal/algos"
	"agilefpga/internal/cluster"
	"agilefpga/internal/core"
	"agilefpga/internal/fpga"
	"agilefpga/internal/sched"
	"agilefpga/internal/workload"
)

// E16 — concurrent cluster throughput. E15 measures virtual time; this
// experiment measures the host. The serial baseline drains a mixed
// Zipf workload through a 4-card replicate cluster one blocking Call at
// a time: round-robin routing lands each function on a different card
// every visit, so almost every request re-runs the real decompression
// and port-write code paths. The concurrent path serves the identical
// jobs through the async layer — affinity routing pins functions to
// cards, coalescing folds bursts into pipelined batches, and the
// decoded-frame cache absorbs the reloads affinity cannot avoid. The
// speedup is work avoided, not cores added: it holds even on one CPU.
type E16Result struct {
	Table Table
	// Wall-clock throughput of each dispatcher, in requests per second.
	SerialOpsPerSec     float64
	ConcurrentOpsPerSec float64
	// Speedup = concurrent / serial.
	Speedup float64
	// Per-dispatcher fabric behaviour behind the throughput gap.
	SerialHitRate          float64
	ConcurrentHitRate      float64
	SerialFramesLoaded     uint64
	ConcurrentFramesLoaded uint64
	DecompCacheHits        uint64
	Requests               int
}

// e16Jobs builds the shared mixed workload: a Zipf draw over the whole
// bank, identical for both dispatchers.
func e16Jobs(requests int) ([]sched.Job, error) {
	var ids []uint16
	for _, f := range algos.Bank() {
		ids = append(ids, f.ID())
	}
	gen, err := workload.NewZipf(ids, 1.1, 20_05)
	if err != nil {
		return nil, err
	}
	jobs := make([]sched.Job, requests)
	for i := range jobs {
		fn := gen.Next()
		f, err := byID(fn)
		if err != nil {
			return nil, err
		}
		in := make([]byte, f.BlockBytes)
		in[0], in[1] = byte(i), byte(i>>8)
		jobs[i] = sched.Job{Fn: fn, Input: in, Seq: i}
	}
	return jobs, nil
}

// e16Serial drains jobs through blocking Calls on a replicate cluster.
func e16Serial(jobs []sched.Job) (cluster.Stats, time.Duration, error) {
	cfg := core.Config{Geometry: fpga.Geometry{Rows: 32, Cols: 40}}
	cl, err := cluster.New(4, cluster.ModeReplicate, cfg)
	if err != nil {
		return cluster.Stats{}, 0, err
	}
	start := time.Now() //lint:wallclock E16 compares real serial vs concurrent wall time
	for _, j := range jobs {
		if _, _, err := cl.Call([]uint16{j.Fn}, j.Input); err != nil {
			return cluster.Stats{}, 0, fmt.Errorf("exp: E16 serial job %d: %w", j.Seq, err)
		}
	}
	elapsed := time.Since(start) //lint:wallclock E16 compares real serial vs concurrent wall time
	if err := cl.CheckInvariants(); err != nil {
		return cluster.Stats{}, 0, err
	}
	return cl.Stats(), elapsed, nil
}

// e16Concurrent drains the same jobs through Serve on an affinity
// cluster with the decoded-frame cache enabled.
func e16Concurrent(jobs []sched.Job, workers int) (cluster.Stats, time.Duration, error) {
	cfg := core.Config{
		Geometry:         fpga.Geometry{Rows: 32, Cols: 40},
		DecodeCacheBytes: 1 << 20,
	}
	cl, err := cluster.New(4, cluster.ModeAffinity, cfg)
	if err != nil {
		return cluster.Stats{}, 0, err
	}
	defer cl.Close()
	res, err := cl.Serve(jobs, workers)
	if err != nil {
		return cluster.Stats{}, 0, fmt.Errorf("exp: E16 concurrent: %w", err)
	}
	if err := cl.CheckInvariants(); err != nil {
		return cluster.Stats{}, 0, err
	}
	return cl.Stats(), res.Elapsed, nil
}

// RunE16 executes the throughput comparison.
func RunE16(requests int) (*E16Result, error) {
	if requests <= 0 {
		requests = 2000
	}
	jobs, err := e16Jobs(requests)
	if err != nil {
		return nil, err
	}
	serialStats, serialElapsed, err := e16Serial(jobs)
	if err != nil {
		return nil, err
	}
	concStats, concElapsed, err := e16Concurrent(jobs, 4)
	if err != nil {
		return nil, err
	}
	res := &E16Result{
		Requests:               requests,
		SerialHitRate:          serialStats.HitRate,
		ConcurrentHitRate:      concStats.HitRate,
		SerialFramesLoaded:     serialStats.Total.FramesLoaded,
		ConcurrentFramesLoaded: concStats.Total.FramesLoaded,
		DecompCacheHits:        concStats.Total.DecompCacheHits,
	}
	res.SerialOpsPerSec = float64(requests) / serialElapsed.Seconds()
	res.ConcurrentOpsPerSec = float64(requests) / concElapsed.Seconds()
	if res.SerialOpsPerSec > 0 {
		res.Speedup = res.ConcurrentOpsPerSec / res.SerialOpsPerSec
	}
	res.Table = Table{
		Title:  fmt.Sprintf("E16  Concurrent cluster throughput (%d requests, Zipf, 4×40-frame cards)", requests),
		Header: []string{"dispatcher", "ops/sec", "hit rate", "frames loaded", "decode-cache hits"},
	}
	res.Table.AddRow("serial replicate", fmt.Sprintf("%.0f", res.SerialOpsPerSec),
		fmt.Sprintf("%.3f", res.SerialHitRate), res.SerialFramesLoaded, uint64(0))
	res.Table.AddRow("async affinity+cache", fmt.Sprintf("%.0f", res.ConcurrentOpsPerSec),
		fmt.Sprintf("%.3f", res.ConcurrentHitRate), res.ConcurrentFramesLoaded, res.DecompCacheHits)
	res.Table.Caption = fmt.Sprintf("speedup %.2fx — affinity pins functions to cards and the decoded-frame cache absorbs residual reloads", res.Speedup)
	return res, nil
}
