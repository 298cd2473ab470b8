package exp

import (
	"bytes"
	"fmt"
	"strings"

	"agilefpga/internal/algos"
	"agilefpga/internal/core"
	"agilefpga/internal/sim"
)

// E20 — on-fabric function chaining. A k-stage dataflow (hash then
// encrypt, filter then transform) run as k separate Calls pays 2k PCI
// transfers per item: every intermediate result crosses to the host and
// straight back. The chained path (DESIGN §15) keeps all stages
// resident at once and hands intermediates through local RAM, so each
// item crosses PCI twice no matter how many stages run. Per chain, for
// a warm card: staged vs chained per-item latency and PCI share, and
// the batched throughput ceiling — two E11-style CallBatch passes with
// a host round trip between them versus one CallChainBatch whose
// stages overlap across items. Outputs are byte-identical throughout.
type E20Result struct {
	Table Table
	// Per chain ("sha256->aes128"): warm per-item latency and its PCI
	// share, staged vs chained, for assertions.
	StagedLatency map[string]sim.Time
	ChainLatency  map[string]sim.Time
	StagedPCI     map[string]sim.Time
	ChainPCI      map[string]sim.Time
	// Batch completion time for the whole item set: two staged
	// CallBatch passes back to back vs one pipelined CallChainBatch.
	StagedBatch map[string]sim.Time
	ChainBatch  map[string]sim.Time
	// Identical reports whether every chained output matched its staged
	// counterpart byte for byte (per-item and batch paths).
	Identical bool
}

// e20Chains are the dataflows under test: a hash feeding a cipher and a
// filter feeding a transform.
var e20Chains = [][]string{
	{"sha256", "aes128"},
	{"fir16", "fft64"},
}

// RunE20 executes the chaining experiment with `items` payloads of
// itemBytes each per chain.
func RunE20(items, itemBytes int) (*E20Result, error) {
	if items <= 0 {
		items = 16
	}
	if itemBytes <= 0 {
		itemBytes = 2048
	}
	res := &E20Result{
		Table: Table{
			Title: fmt.Sprintf("E20  On-fabric chaining vs staged calls (%d items × %d B, warm)", items, itemBytes),
			Header: []string{"chain", "staged/item", "chained/item", "speedup",
				"PCI staged", "PCI chained", "batch staged", "batch chained", "batch speedup"},
		},
		StagedLatency: make(map[string]sim.Time),
		ChainLatency:  make(map[string]sim.Time),
		StagedPCI:     make(map[string]sim.Time),
		ChainPCI:      make(map[string]sim.Time),
		StagedBatch:   make(map[string]sim.Time),
		ChainBatch:    make(map[string]sim.Time),
		Identical:     true,
	}
	for _, chain := range e20Chains {
		label := strings.Join(chain, "->")
		cp, err := core.New(core.Config{RAMBytes: 1024 * 1024})
		if err != nil {
			return nil, err
		}
		blockBytes := 0
		for _, name := range chain {
			f, err := algos.ByName(name)
			if err != nil {
				return nil, err
			}
			if _, err := cp.Install(f); err != nil {
				return nil, err
			}
			if blockBytes == 0 {
				blockBytes = f.BlockBytes
			}
		}
		n := itemBytes / blockBytes
		if n == 0 {
			n = 1
		}
		inputs := make([][]byte, items)
		for i := range inputs {
			inputs[i] = make([]byte, n*blockBytes)
			for j := range inputs[i] {
				inputs[i][j] = byte(i*31 + j)
			}
		}
		// Warm every stage at once so both arms measure steady state.
		if _, err := cp.CallChain(chain, inputs[0]); err != nil {
			return nil, fmt.Errorf("exp: E20 warm %s: %w", label, err)
		}

		// Staged arm: each stage is its own Call, the intermediate
		// result crossing PCI out and back in between.
		var stagedLat, stagedPCI sim.Time
		stagedOuts := make([][]byte, items)
		for i, in := range inputs {
			cur := in
			for _, name := range chain {
				call, err := cp.Call(name, cur)
				if err != nil {
					return nil, fmt.Errorf("exp: E20 staged %s/%s: %w", label, name, err)
				}
				stagedLat += call.Latency
				stagedPCI += call.Breakdown.Get(sim.PhasePCI)
				cur = call.Output
			}
			stagedOuts[i] = cur
		}

		// Chained arm: one call per item, intermediates in local RAM.
		var chainLat, chainPCI sim.Time
		for i, in := range inputs {
			cr, err := cp.CallChain(chain, in)
			if err != nil {
				return nil, fmt.Errorf("exp: E20 chained %s: %w", label, err)
			}
			chainLat += cr.Latency
			chainPCI += cr.Breakdown.Get(sim.PhasePCI)
			if !bytes.Equal(cr.Output, stagedOuts[i]) {
				res.Identical = false
			}
		}

		// Batched arms: staged = one CallBatch per stage with the whole
		// intermediate set bounced through the host between them;
		// chained = one CallChainBatch with inter-item stage overlap.
		var stagedBatch sim.Time
		batchOuts := inputs
		for _, name := range chain {
			b, err := execNamed(cp, []string{name}, batchOuts)
			if err != nil {
				return nil, fmt.Errorf("exp: E20 staged batch %s/%s: %w", label, name, err)
			}
			stagedBatch += b.Latency
			batchOuts = make([][]byte, len(b.Results))
			for i := range b.Results {
				batchOuts[i] = b.Results[i].Output
			}
		}
		cb, err := execNamed(cp, chain, inputs)
		if err != nil {
			return nil, fmt.Errorf("exp: E20 chain batch %s: %w", label, err)
		}
		for i := range cb.Results {
			if !bytes.Equal(cb.Results[i].Output, batchOuts[i]) {
				res.Identical = false
			}
		}

		perStaged := stagedLat / sim.Time(items)
		perChained := chainLat / sim.Time(items)
		res.StagedLatency[label] = perStaged
		res.ChainLatency[label] = perChained
		res.StagedPCI[label] = stagedPCI / sim.Time(items)
		res.ChainPCI[label] = chainPCI / sim.Time(items)
		res.StagedBatch[label] = stagedBatch
		res.ChainBatch[label] = cb.Latency
		res.Table.AddRow(label, perStaged.String(), perChained.String(),
			fmt.Sprintf("%.2fx", float64(perStaged)/float64(perChained)),
			res.StagedPCI[label].String(), res.ChainPCI[label].String(),
			stagedBatch.String(), cb.Latency.String(),
			fmt.Sprintf("%.2fx", float64(stagedBatch)/float64(cb.Latency)))
	}
	res.Table.Caption = "staged = one Call per stage (intermediates cross PCI both ways); chained = one CallChain (intermediates in card RAM); batch arms compare two CallBatch passes against one pipelined CallChainBatch; outputs byte-identical"
	return res, nil
}
