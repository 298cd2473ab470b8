package agilefpga

import (
	"time"

	"agilefpga/internal/algos"
	"agilefpga/internal/cluster"
	"agilefpga/internal/core"
	"agilefpga/internal/sim"
)

// On-fabric function chaining: several bank functions stay resident on
// one card at once and run as a dataflow pipeline, each stage's output
// feeding the next through the card's local RAM. The input crosses PCI
// once on the way in and the final output once on the way out — a
// k-stage pipeline pays 2 PCI transfers instead of 2k — and the output
// is byte-identical to feeding the stages as separate Calls. A call is
// the one-stage case of the same request.

// ChainStage reports one stage of a chained call.
type ChainStage struct {
	// Function is the stage's bank function name.
	Function string
	// Hit reports whether the stage was already configured.
	Hit bool
	// Phases is the stage's share of the chain's card time (no PCI).
	Phases map[string]time.Duration
}

// ChainResult reports one chained call.
type ChainResult struct {
	// Output is the final stage's output.
	Output []byte
	// Latency is the full round-trip virtual time, PCI included.
	Latency time.Duration
	// Hits counts stages that were already configured.
	Hits int
	// Phases breaks the whole round trip down; the per-stage shares are
	// in Stages, with PCI charged once at the chain level.
	Phases map[string]time.Duration
	// Stages carries the per-stage attribution, in chain order.
	Stages []ChainStage
}

// phasesOf renders a breakdown as the public phase map.
func phasesOf(br sim.Breakdown) map[string]time.Duration {
	phases := make(map[string]time.Duration, sim.NumPhases)
	for p := 0; p < sim.NumPhases; p++ {
		if t := br.Get(sim.Phase(p)); t != 0 {
			phases[sim.Phase(p).String()] = t.Duration()
		}
	}
	return phases
}

// functionName maps a bank function id to its name.
func functionName(id uint16) string {
	for _, f := range algos.Bank() {
		if f.ID() == id {
			return f.Name()
		}
	}
	return "unknown"
}

// chainResultOf converts a core result to the public chain form.
func chainResultOf(r *core.CallResult) *ChainResult {
	out := &ChainResult{
		Output:  r.Output,
		Latency: r.Latency.Duration(),
		Phases:  phasesOf(r.Breakdown),
		Stages:  make([]ChainStage, len(r.Stages)),
	}
	for i, st := range r.Stages {
		if st.Hit {
			out.Hits++
		}
		out.Stages[i] = ChainStage{Function: functionName(st.Fn), Hit: st.Hit, Phases: phasesOf(st.Cost)}
	}
	return out
}

// CallChain executes the named functions as one on-card dataflow chain
// over input: stage 0 consumes input, every later stage consumes its
// predecessor's output from local RAM, and only the final output
// returns to the host.
func (cp *CoProcessor) CallChain(names []string, input []byte) (*ChainResult, error) {
	r, err := cp.inner.CallChain(names, input)
	if err != nil {
		return nil, err
	}
	return chainResultOf(r), nil
}

// CallChainBatch executes the chain over every input with inter-item
// overlap: stage k+1 of item N runs while stage k processes item N+1,
// so a warm chain's throughput approaches its slowest stage instead of
// the sum of all stages. Outputs match CallChain item by item; only the
// latency model differs.
func (cp *CoProcessor) CallChainBatch(names []string, inputs [][]byte) (*BatchResult, error) {
	fns, err := cp.inner.Lookup(names...)
	if err != nil {
		return nil, err
	}
	r, err := cp.inner.Exec(core.Request{Stages: fns, Inputs: inputs})
	if err != nil {
		return nil, err
	}
	out := &BatchResult{
		Outputs:           make([][]byte, len(r.Results)),
		Latency:           r.Latency.Duration(),
		SequentialLatency: r.SequentialLatency.Duration(),
		OverlapSaved:      r.OverlapSaved.Duration(),
		Hits:              r.Hits,
	}
	for i := range r.Results {
		out.Outputs[i] = r.Results[i].Output
	}
	return out, nil
}

// lookupStages resolves a chain's function names to bank ids.
func lookupStages(names []string) ([]uint16, error) {
	fns := make([]uint16, len(names))
	for i, name := range names {
		f, err := algos.ByName(name)
		if err != nil {
			return nil, err
		}
		fns[i] = f.ID()
	}
	return fns, nil
}

// call routes the named stages synchronously through the dispatcher.
func (cl *Cluster) call(names []string, input []byte) (*core.CallResult, int, error) {
	fns, err := lookupStages(names)
	if err != nil {
		return nil, -1, err
	}
	return cl.inner.Call(fns, input)
}

// submit enqueues the named stages asynchronously.
func (cl *Cluster) submit(names []string, input []byte) *Pending {
	fns, err := lookupStages(names)
	if err != nil {
		return &Pending{inner: cluster.Failed(err)}
	}
	return &Pending{inner: cl.inner.Submit(fns, []cluster.Item{{Input: input}}, true)[0]}
}

// CallChain routes one chained call through the dispatcher as a single
// unit — one routing decision, one card-queue slot, all stages
// co-resident on the serving card. In affinity mode the pin is keyed on
// the whole chain, so repeated chains land where their stages are warm.
func (cl *Cluster) CallChain(names []string, input []byte) (*ChainResult, int, error) {
	res, card, err := cl.call(names, input)
	if err != nil {
		return nil, card, err
	}
	return chainResultOf(res), card, nil
}

// SubmitChain enqueues one chained call asynchronously; Wait collects
// the final output. Consecutive same-chain submissions on one card are
// coalesced into the pipelined chain-batch path, overlapping stages
// across items.
func (cl *Cluster) SubmitChain(names []string, input []byte) *Pending {
	return cl.submit(names, input)
}
