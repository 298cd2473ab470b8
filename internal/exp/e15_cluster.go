package exp

import (
	"fmt"

	"agilefpga/internal/algos"
	"agilefpga/internal/cluster"
	"agilefpga/internal/core"
	"agilefpga/internal/fpga"
	"agilefpga/internal/sim"
	"agilefpga/internal/workload"
)

// E15 — multi-card scale-out. When one card's fabric cannot hold the
// working set, the host can add cards. Replication multiplies capacity
// but each card still thrashes its own fabric; partitioning pins each
// function to a home card, and once the per-card share fits, swapping
// vanishes. Reported per (cards × mode): cluster hit rate, evictions,
// mean latency, and the dispatcher's load balance.
type E15Result struct {
	Table Table
	// HitRate and MeanLatency keyed by "<n>/<mode>".
	HitRate     map[string]float64
	MeanLatency map[string]sim.Time
}

// RunE15 executes the cluster experiment.
func RunE15(requests int) (*E15Result, error) {
	if requests <= 0 {
		requests = 800
	}
	var ids []uint16
	for _, f := range algos.Bank() {
		ids = append(ids, f.ID())
	}
	res := &E15Result{
		Table: Table{
			Title: fmt.Sprintf("E15  Multi-card scale-out (%d requests, Zipf, 40-frame cards)", requests),
			Header: []string{"cards", "mode", "hit rate", "evictions",
				"mean latency", "per-card requests"},
		},
		HitRate:     make(map[string]float64),
		MeanLatency: make(map[string]sim.Time),
	}
	cfg := core.Config{Geometry: fpga.Geometry{Rows: 32, Cols: 40}}
	for _, n := range []int{1, 2, 4} {
		for _, mode := range cluster.Modes() {
			if n == 1 && mode == cluster.ModePartition {
				continue // identical to replicate with one card
			}
			cl, err := cluster.New(n, mode, cfg)
			if err != nil {
				return nil, err
			}
			gen, err := workload.NewZipf(ids, 1.1, 20_05)
			if err != nil {
				return nil, err
			}
			var total sim.Time
			for i := 0; i < requests; i++ {
				fn := gen.Next()
				f, err := byID(fn)
				if err != nil {
					return nil, err
				}
				in := make([]byte, f.BlockBytes)
				in[0] = byte(i)
				call, _, err := cl.Call([]uint16{fn}, in)
				if err != nil {
					return nil, fmt.Errorf("exp: E15 %d/%s request %d: %w", n, mode, i, err)
				}
				total += call.Latency
			}
			if err := cl.CheckInvariants(); err != nil {
				return nil, err
			}
			st := cl.Stats()
			key := fmt.Sprintf("%d/%s", n, mode)
			mean := sim.Time(uint64(total) / uint64(requests))
			res.HitRate[key] = st.HitRate
			res.MeanLatency[key] = mean
			res.Table.AddRow(n, mode, fmt.Sprintf("%.3f", st.HitRate),
				st.Total.Evictions, mean.String(), fmt.Sprintf("%v", st.PerCardRequests))
		}
	}
	res.Table.Caption = "bank demand 154 frames; 4 partitioned 40-frame cards hold everything resident — swapping disappears"
	return res, nil
}
