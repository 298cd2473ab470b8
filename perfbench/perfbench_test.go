package main

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"
)

func TestGeneratorsReproducible(t *testing.T) {
	for _, w := range workloads {
		a, b := w.generate(7, 64), w.generate(7, 64)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 drew two different sequences", w.name)
		}
		if reflect.DeepEqual(a, w.generate(8, 64)) {
			t.Errorf("%s: seeds 7 and 8 drew the same sequence", w.name)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i) // reversed: percentile must sort
	}
	for _, c := range []struct{ q, want float64 }{{0, 0}, {0.5, 50}, {0.99, 99}, {1, 100}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(0..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{1, 2, 3, 4}, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5 (interpolated)", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestSummariseWindows(t *testing.T) {
	// Two one-second windows: 1000 completions at 10 µs, then 2000 at
	// 20 µs. Window rates are 1000/s and 2000/s; CPU per op 1 and 2 µs.
	load := loadResult{dur: 2 * time.Second, cpuMarks: []int64{0, 1e6, 5e6}}
	for i := 0; i < 1000; i++ {
		load.completions = append(load.completions, completion{doneNS: int64(i) * 1e6, latNS: 10e3})
	}
	for i := 0; i < 2000; i++ {
		load.completions = append(load.completions, completion{doneNS: 1e9 + int64(i)*5e5, latNS: 20e3})
	}
	w := summarise(windowsOf(load))
	if w.throughput != 1500 {
		t.Errorf("throughput = %v, want the median window rate 1500/s", w.throughput)
	}
	if w.p50us != 15 || w.p99us != 15 || w.samples != 1000 {
		t.Errorf("percentiles = %v/%v over %d, want medians of per-window values 15/15, fewest samples 1000", w.p50us, w.p99us, w.samples)
	}
	if w.cpuUSPerOp != 1.5 {
		t.Errorf("cpu per op = %v µs, want the median of 1 and 2", w.cpuUSPerOp)
	}
}

func TestParseProm(t *testing.T) {
	text := []byte(`# HELP agile_server_requests_total Requests by status.
agile_server_requests_total{status="ok"} 40
agile_server_requests_total{status="resource_exhausted"} 2
agile_cluster_rejected_total{card="0"} 1
agile_cluster_rejected_total{card="1"} 3
`)
	p := parseProm(text)
	if got := promSum(p, "agile_cluster_rejected_total", nil); got != 4 {
		t.Errorf("rejected = %v, want 4", got)
	}
	notOK := func(l string) bool { return l != `status="ok"` }
	if got := promSum(p, "agile_server_requests_total", notOK); got != 2 {
		t.Errorf("refused = %v, want 2", got)
	}
}

func TestVirtualReplayRepeats(t *testing.T) {
	ctx := context.Background()
	w, err := workloadByName("cold-mix")
	if err != nil {
		t.Fatal(err)
	}
	reqs := w.generate(3, 96)
	if err := fillReferences(reqs); err != nil {
		t.Fatal(err)
	}
	_, a, failed, err := replayVirtual(ctx, w, reqs)
	if err != nil || failed != 0 {
		t.Fatalf("first replay: err %v, %d wrong outputs", err, failed)
	}
	_, b, _, err := replayVirtual(ctx, w, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("virtual digests differ: %s vs %s", a, b)
	}
}

// TestLadderRungsAgree climbs the whole ladder on a short prefix of
// every workload: each rung must return the host reference output for
// every request.
func TestLadderRungsAgree(t *testing.T) {
	ctx := context.Background()
	sizes := map[string]int{"cold-mix": 24, "hot-bulk": 4, "net-routed": 24}
	for _, w := range workloads {
		reqs := w.generate(5, sizes[w.name])
		if err := fillReferences(reqs); err != nil {
			t.Fatal(err)
		}
		lad := newLadder(w, reqs)
		if err := lad.run(ctx); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if lad.failed != 0 {
			t.Errorf("%s: %d of %d rung calls returned a wrong output", w.name, lad.failed, lad.calls)
		}
		if want := (len(rungOrder) - 1) * ladderReps * len(reqs); lad.calls != want {
			t.Errorf("%s: %d rung calls, want %d", w.name, lad.calls, want)
		}
		if len(lad.results) != len(rungOrder) {
			t.Errorf("%s: %d rungs reported, want %d", w.name, len(lad.results), len(rungOrder))
		}
	}
}

// TestRunLoadVerifies drives every workload's closed loop briefly: all
// requests must come back verified, with a completion per success.
func TestRunLoadVerifies(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		reqs := w.generate(9, w.warm+16)
		if err := fillReferences(reqs); err != nil {
			t.Fatal(err)
		}
		d, err := deploy(ctx, w, false)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if err := d.warm(ctx, reqs); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		load := d.runLoad(ctx, reqs, w.warm, 200*time.Millisecond)
		if err := d.close(ctx); err != nil {
			t.Errorf("%s: close: %v", w.name, err)
		}
		if load.attempted == 0 || load.failed != 0 || len(load.completions) != load.attempted {
			t.Errorf("%s: %d attempted, %d failed, %d completions", w.name, load.attempted, load.failed, len(load.completions))
		}
	}
}
