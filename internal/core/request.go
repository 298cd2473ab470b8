package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"agilefpga/internal/algos"
	"agilefpga/internal/mcu"
	"agilefpga/internal/metrics"
	"agilefpga/internal/sim"
)

// The host protocol (DESIGN §4, §15) has one request shape: every input
// runs through every stage on the card. A call is 1 stage × 1 input, a
// batch 1 × N, a chain k × 1 and a chain batch k × N. Per item the host
// bursts the input into BAR1, commands the card through the BAR0
// mailbox and collects the final output; intermediate results of a
// chain never leave the card's local RAM, so a k-stage item crosses PCI
// twice instead of 2k times.

// ErrBadInput reports an item the card cannot stage: empty, or larger
// than the input staging window.
var ErrBadInput = errors.New("core: input empty or larger than the staging window")

// Request is one card invocation.
type Request struct {
	// Stages lists the functions every input runs through, in order
	// (1..mcu.MaxChainStages).
	Stages []uint16
	// Inputs holds one input per item.
	Inputs [][]byte
	// TraceID and SpanID, when non-zero, stamp the card-log events the
	// request emits with the owning distributed-trace span. The tag is
	// scoped by the card lock, so concurrent untraced requests never
	// inherit it.
	TraceID, SpanID uint64
}

// CallResult reports one item: one input through every stage.
type CallResult struct {
	// Output is the final stage's output, byte-identical to feeding the
	// stages as separate single-stage calls.
	Output []byte
	// Breakdown covers the whole round trip: every stage's card phases
	// plus PhasePCI, charged once for input-in and output-out.
	Breakdown sim.Breakdown
	// Latency is Breakdown.Total().
	Latency sim.Time
	// Hit reports whether every stage was already on the fabric.
	Hit bool
	// Stages carries the per-stage attribution, in stage order; stage
	// costs sum to Breakdown minus the PCI phase.
	Stages []mcu.ChainStage
}

// BatchResult reports a request's items.
type BatchResult struct {
	// Results carries one round trip per input, in input order.
	Results []CallResult
	// Latency is the request's completion time under double-buffered
	// DMA: the host streams item N+1's input (and collects item N-1's
	// output) while the card works on item N. The PCI bus is
	// half-duplex, so all bus phases share one resource; the card is the
	// other. The request finishes no earlier than either resource's total
	// demand, plus the serial edges (the first input and the last output
	// overlap nothing).
	Latency sim.Time
	// SequentialLatency is what the same items cost as independent
	// synchronous requests — the baseline batching is measured against.
	SequentialLatency sim.Time
	// OverlapSaved is the card time the pipelined model (DESIGN §12)
	// hid: the data-input module stages item N+1 while the fabric runs
	// item N and the output-collection module drains item N-1, and the
	// stages of a chain run in their own simultaneously resident fabric
	// regions. Zero under SequentialConfig.
	OverlapSaved sim.Time
	// Hits counts items whose every stage was already resident.
	Hits int
}

// Call executes the named function on the card.
func (cp *CoProcessor) Call(name string, input []byte) (*CallResult, error) {
	return cp.CallChain([]string{name}, input)
}

// CallID is Call by function id.
func (cp *CoProcessor) CallID(fnID uint16, input []byte) (*CallResult, error) {
	return cp.CallChainID([]uint16{fnID}, input)
}

// CallChain executes the named functions as one on-card dataflow chain
// over input, stage k's output feeding stage k+1 through local RAM.
func (cp *CoProcessor) CallChain(names []string, input []byte) (*CallResult, error) {
	fns, err := cp.Lookup(names...)
	if err != nil {
		return nil, err
	}
	return cp.CallChainID(fns, input)
}

// CallChainID is CallChain by function ids.
func (cp *CoProcessor) CallChainID(fns []uint16, input []byte) (*CallResult, error) {
	res, err := cp.Exec(Request{Stages: fns, Inputs: [][]byte{input}})
	if err != nil {
		return nil, err
	}
	return &res.Results[0], nil
}

// Lookup resolves provisioned function names to their ids.
func (cp *CoProcessor) Lookup(names ...string) ([]uint16, error) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	fns := make([]uint16, len(names))
	for i, name := range names {
		f, err := algos.ByName(name)
		if err != nil {
			return nil, err
		}
		if _, ok := cp.installed[f.ID()]; !ok {
			return nil, fmt.Errorf("core: function %q not installed on the card", name)
		}
		fns[i] = f.ID()
	}
	return fns, nil
}

// CheckInput reports, wrapping ErrBadInput, whether the card cannot
// stage input. Callers that batch inputs from different sources check
// each one before grouping, so one bad input cannot fail its group.
func (cp *CoProcessor) CheckInput(input []byte) error {
	if len(input) == 0 || len(input) > cp.ctrl.InWindowBytes() {
		return fmt.Errorf("%w: %d bytes, window %d", ErrBadInput, len(input), cp.ctrl.InWindowBytes())
	}
	return nil
}

// Exec runs req on the card. Outputs and card state are identical to
// issuing the items one by one; only the latency model overlaps them.
// The request is validated before the card is touched; a card error
// fails the whole request after charging the bus time already spent.
func (cp *CoProcessor) Exec(req Request) (*BatchResult, error) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	cp.ctrl.SetRequestTrace(req.TraceID, req.SpanID)
	defer cp.ctrl.SetRequestTrace(0, 0)
	return cp.exec(req)
}

// exec is the one host-protocol executor. Callers hold cp.mu.
func (cp *CoProcessor) exec(req Request) (*BatchResult, error) {
	k, n := len(req.Stages), len(req.Inputs)
	if k == 0 || k > mcu.MaxChainStages {
		return nil, fmt.Errorf("core: a request names 1..%d stages, got %d", mcu.MaxChainStages, k)
	}
	if n == 0 {
		return nil, errors.New("core: empty request")
	}
	for i, in := range req.Inputs {
		if err := cp.CheckInput(in); err != nil {
			return nil, fmt.Errorf("core: item %d: %w", i, err)
		}
	}
	// The card branches on the stage count: one stage is CmdExec with
	// ARG0 = fn; more latch the stage list into RegCHAIN — the latch
	// persists across commands, so the request pays it once — and
	// send CmdExecChain with ARG0 = k.
	cmd, arg0 := uint32(mcu.CmdExec), uint32(req.Stages[0])
	var latch uint64
	if k > 1 {
		cmd, arg0 = mcu.CmdExecChain, uint32(k)
		for i, fn := range req.Stages {
			cyc, err := cp.bus.WriteWord(cp.slot, 0, mcu.RegCHAIN, uint32(i)<<16|uint32(fn))
			latch += cyc
			if err != nil {
				cp.pciDom.Advance(latch)
				return nil, err
			}
		}
	}
	// Card-side pipeline, one slot per physically distinct resource an
	// item occupies in sequence: the data-input module, each stage's
	// fabric region (stage s of item N runs beside stage s+1 of item
	// N-1) and the output-collection module. A lone item, or the
	// sequential model, has nothing to overlap.
	var pipe *sim.Pipeline
	if n > 1 && !cp.cfg.SequentialConfig {
		phases := make([]sim.Phase, k+2)
		phases[0], phases[k+1] = sim.PhaseDataIn, sim.PhaseDataOut
		for s := 1; s <= k; s++ {
			phases[s] = sim.PhaseExec
		}
		pipe = sim.NewPipeline(phases...)
	}
	var label string
	if cp.metrics != nil {
		label = cp.label(req.Stages)
	}

	res := &BatchResult{Results: make([]CallResult, n)}
	stages := make([]mcu.ChainStage, n*k)
	var busTotal, cardTotal, firstIn, lastOut sim.Time
	var costs [mcu.MaxChainStages + 2]sim.Time
	for i, input := range req.Inputs {
		out, inCyc, outCyc, err := cp.mailbox(cmd, arg0, input)
		inCyc += latch
		latch = 0
		inT, outT := cp.pciDom.Advance(inCyc), cp.pciDom.Advance(outCyc)
		if err != nil {
			// Cloned so that only a failure puts the stage list on the heap.
			return nil, fmt.Errorf("core: item %d, stages %v: %w", i, slices.Clone(req.Stages), err)
		}
		r := &res.Results[i]
		r.Output = out
		r.Breakdown = cp.ctrl.LastBreakdown()
		r.Stages = stages[i*k : (i+1)*k : (i+1)*k]
		copy(r.Stages, cp.ctrl.LastChainStages())
		r.Hit = true
		for _, st := range r.Stages {
			r.Hit = r.Hit && st.Hit
		}
		if r.Hit {
			res.Hits++
		}
		cardT := r.Breakdown.Total()
		busTotal += inT + outT
		cardTotal += cardT
		res.SequentialLatency += inT + outT + cardT
		if i == 0 {
			firstIn = inT
		}
		lastOut = outT
		if pipe != nil {
			pipe.Feed(slotCosts(costs[:0], r.Stages)...)
		}
		r.Breakdown.Add(sim.PhasePCI, inT+outT)
		r.Latency = r.Breakdown.Total()
		cp.observe(label, k, r.Breakdown)
	}
	cardPath := cardTotal
	if pipe != nil {
		cardPath = pipe.Latency()
		res.OverlapSaved = cardTotal - cardPath
	}
	res.Latency = max(busTotal, firstIn+cardPath+lastOut)
	if cp.metrics != nil && res.OverlapSaved != 0 {
		name := "agile_batch_overlap_saved_ps_total"
		if k > 1 {
			name = "agile_chain_overlap_saved_ps_total"
		}
		cp.metrics.Counter(name).Add(uint64(res.OverlapSaved))
	}
	return res, nil
}

// mailbox runs one item through the card's BAR0 mailbox: input into
// BAR1, ARG0/ARG1/CMD, STATUS and RESULTLEN, output out of BAR1. It
// reports the bus cycles spent host→card and card→host, failures
// included, so the caller charges whatever the bus did.
func (cp *CoProcessor) mailbox(cmd, arg0 uint32, input []byte) (out []byte, in, back uint64, err error) {
	if in, err = cp.bus.Write(cp.slot, 1, 0, input); err != nil {
		return nil, in, 0, err
	}
	for _, rw := range [...]struct{ off, val uint32 }{
		{mcu.RegARG0, arg0},
		{mcu.RegARG1, uint32(len(input))},
		{mcu.RegCMD, cmd},
	} {
		cyc, err := cp.bus.WriteWord(cp.slot, 0, rw.off, rw.val)
		in += cyc
		if err != nil {
			return nil, in, 0, err
		}
	}
	status, back, err := cp.bus.ReadWord(cp.slot, 0, mcu.RegSTATUS)
	if err != nil {
		return nil, in, back, err
	}
	if status != mcu.StatusOK {
		code, cyc, _ := cp.bus.ReadWord(cp.slot, 0, mcu.RegERRCODE)
		return nil, in, back + cyc, fmt.Errorf("card reported error code %d", code)
	}
	rlen, cyc, err := cp.bus.ReadWord(cp.slot, 0, mcu.RegRESULTLEN)
	back += cyc
	if err != nil {
		return nil, in, back, err
	}
	out, cyc, err = cp.bus.Read(cp.slot, 1, cp.ctrl.OutWindowOff(), int(rlen))
	return out, in, back + cyc, err
}

// slotCosts appends an item's card-pipeline slot costs to dst, summing
// exactly to the item's card time. The entry slot carries stage 0's
// lookup, configuration and data-in; each stage slot carries its exec
// plus — for later stages — the RAM hand-off that precedes it (the
// previous stage's data-out and its own lookup, configuration and
// data-in); the exit slot carries the final stage's data-out.
func slotCosts(dst []sim.Time, stages []mcu.ChainStage) []sim.Time {
	entry := func(b sim.Breakdown) sim.Time {
		return b.Total() - b.Get(sim.PhaseExec) - b.Get(sim.PhaseDataOut)
	}
	dst = append(dst, entry(stages[0].Cost))
	for s := range stages {
		t := stages[s].Cost.Get(sim.PhaseExec)
		if s > 0 {
			t += stages[s-1].Cost.Get(sim.PhaseDataOut) + entry(stages[s].Cost)
		}
		dst = append(dst, t)
	}
	return append(dst, stages[len(stages)-1].Cost.Get(sim.PhaseDataOut))
}

// observe records the host-side view of one finished item: the PCI
// phase (charged here, not on the card) and the round-trip histogram —
// agile_request_seconds per function for a single stage,
// agile_chain_seconds under a chain-shaped label ("sha256->aes128")
// otherwise, keeping the per-function histograms uncontaminated.
// Card-side phases are observed in mcu, per stage.
func (cp *CoProcessor) observe(label string, k int, br sim.Breakdown) {
	if cp.metrics == nil {
		return
	}
	if t := br.Get(sim.PhasePCI); t != 0 {
		cp.metrics.Histogram("agile_phase_seconds",
			metrics.L("phase", sim.PhasePCI.String()), metrics.L("fn", label)).Observe(t)
	}
	if k == 1 {
		cp.metrics.Histogram("agile_request_seconds", metrics.L("fn", label)).Observe(br.Total())
	} else {
		cp.metrics.Histogram("agile_chain_seconds", metrics.L("chain", label)).Observe(br.Total())
	}
}

// label renders a stage list as one metric label: the bank name of
// each stage, joined by "->".
func (cp *CoProcessor) label(fns []uint16) string {
	if len(fns) == 1 {
		return cp.fnLabel(fns[0])
	}
	parts := make([]string, len(fns))
	for i, fn := range fns {
		parts[i] = cp.fnLabel(fn)
	}
	return strings.Join(parts, "->")
}

// fnLabel resolves a function id to its bank name.
func (cp *CoProcessor) fnLabel(fnID uint16) string {
	if f, ok := cp.installed[fnID]; ok {
		return f.Name()
	}
	return fmt.Sprintf("fn%d", fnID)
}
