package core

import (
	"bytes"
	"testing"

	"agilefpga/internal/algos"
	"agilefpga/internal/compress"
	"agilefpga/internal/sim"
)

// TestChainMatchesStagedCalls is the property DESIGN §15 commits to:
// for every stage list of one or two bank functions × codec, a warm
// request produces output byte-identical to feeding the stages as
// separate single-stage calls, and its virtual round trip never exceeds
// the staged sum — the RAM hand-off must beat bouncing the intermediate
// across PCI, and a one-stage request is exactly the call. A pair is
// chainable when the staged path itself succeeds; pairs whose
// intermediate overflows the chain's RAM staging window are skipped
// (and counted, so a model regression can't silently skip everything).
func TestChainMatchesStagedCalls(t *testing.T) {
	for _, codecName := range compress.Names() {
		codecName := codecName
		t.Run(codecName, func(t *testing.T) {
			cp, err := New(Config{Codec: codecName, RAMBytes: 1024 * 1024})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cp.InstallBank(); err != nil {
				t.Fatal(err)
			}
			chained, skipped := 0, 0
			for _, f0 := range algos.Bank() {
				in := make([]byte, f0.BlockBytes)
				for i := range in {
					in[i] = byte(i*13 + 5)
				}
				lists := [][]uint16{{f0.ID()}}
				for _, f1 := range algos.Bank() {
					lists = append(lists, []uint16{f0.ID(), f1.ID()})
				}
				for _, fns := range lists {
					// Warm every stage so the arms compare steady state
					// (any two bank functions fit the default fabric, so
					// no warm load can evict another).
					cur, staged, stagedPCI := in, sim.Time(0), sim.Time(0)
					var stageErr error
					for pass := 0; pass < 2 && stageErr == nil; pass++ {
						cur, staged, stagedPCI = in, 0, 0
						for _, fn := range fns {
							r, err := cp.CallID(fn, cur)
							if err != nil {
								stageErr = err
								break
							}
							cur = r.Output
							staged += r.Latency
							stagedPCI += r.Breakdown.Get(sim.PhasePCI)
						}
					}
					if stageErr != nil {
						// Not a chainable list (e.g. the intermediate
						// exceeds the next stage's input window); the
						// chain must agree.
						if _, cerr := cp.CallChainID(fns, in); cerr == nil {
							t.Errorf("%v: staged rejected (%v) but chain accepted", fns, stageErr)
						}
						skipped++
						continue
					}

					// Chained arm: same stages, intermediates in local RAM.
					cr, err := cp.CallChainID(fns, in)
					if err != nil {
						skipped++
						continue
					}
					chained++
					if !bytes.Equal(cr.Output, cur) {
						t.Errorf("%v: chained output diverges from staged", fns)
					}
					if cr.Latency > staged {
						t.Errorf("%v: chain %v slower than staged %v", fns, cr.Latency, staged)
					}
					// PCI crosses twice, not 2k times: a chain's PCI share
					// must undercut the staged arms', and one stage must
					// cost exactly the call.
					pci := cr.Breakdown.Get(sim.PhasePCI)
					if len(fns) > 1 && pci >= stagedPCI {
						t.Errorf("%v: chain PCI %v not below staged PCI %v", fns, pci, stagedPCI)
					}
					if len(fns) == 1 && (pci != stagedPCI || cr.Latency != staged) {
						t.Errorf("%v: one-stage request %v (PCI %v) differs from the call %v (PCI %v)",
							fns, cr.Latency, pci, staged, stagedPCI)
					}
					if len(cr.Stages) != len(fns) {
						t.Fatalf("%v: %d stage attributions", fns, len(cr.Stages))
					}
					// Stage breakdowns sum to the chain minus PCI.
					var sum sim.Breakdown
					for _, st := range cr.Stages {
						sum.AddAll(st.Cost)
					}
					if sum.Total() != cr.Latency-pci {
						t.Errorf("%v: stage costs %v don't sum to chain %v minus PCI %v",
							fns, sum.Total(), cr.Latency, pci)
					}
				}
			}
			if n := len(algos.Bank()); chained < n*n/2+n {
				t.Errorf("only %d stage lists chained, %d skipped — chainability collapsed", chained, skipped)
			}
			if err := cp.CheckInvariants(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestChainBatchMatchesChain pins the batch shapes to the synchronous
// ones, for one stage and for a chain: outputs item by item equal the
// staged single-stage calls and the k × 1 request, batch completion is
// no later than the sequential sum, and overlap accounting is
// consistent.
func TestChainBatchMatchesChain(t *testing.T) {
	cp, err := New(Config{RAMBytes: 1024 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cp.InstallBank(); err != nil {
		t.Fatal(err)
	}
	inputs := make([][]byte, 12)
	for i := range inputs {
		inputs[i] = make([]byte, 256)
		for j := range inputs[i] {
			inputs[i][j] = byte(i*31 + j)
		}
	}
	for _, chain := range [][]uint16{{algos.IDSHA256}, {algos.IDSHA256, algos.IDAES128}} {
		want := make([][]byte, len(inputs))
		for i, in := range inputs {
			want[i] = in
			for _, fn := range chain {
				r, err := cp.CallID(fn, want[i])
				if err != nil {
					t.Fatal(err)
				}
				want[i] = r.Output
			}
			cr, err := cp.CallChainID(chain, in)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cr.Output, want[i]) {
				t.Errorf("%v item %d: request output diverges from staged calls", chain, i)
			}
		}
		b, err := cp.Exec(Request{Stages: chain, Inputs: inputs})
		if err != nil {
			t.Fatal(err)
		}
		if b.Latency > b.SequentialLatency {
			t.Errorf("%v: batch %v slower than its own sequential model %v", chain, b.Latency, b.SequentialLatency)
		}
		if b.OverlapSaved == 0 {
			t.Errorf("%v: warm 12-item batch saved nothing — inter-item overlap not engaged", chain)
		}
		if b.Hits != len(inputs) {
			t.Errorf("%v: %d/%d warm items hit", chain, b.Hits, len(inputs))
		}
		if len(b.Results) != len(inputs) {
			t.Fatalf("%v: %d per-item results", chain, len(b.Results))
		}
		for i, r := range b.Results {
			if !bytes.Equal(r.Output, want[i]) {
				t.Errorf("%v item %d: batch output diverges", chain, i)
			}
			if r.Breakdown.Get(sim.PhasePCI) == 0 {
				t.Errorf("%v item %d: no PCI attributed", chain, i)
			}
			if len(r.Stages) != len(chain) {
				t.Errorf("%v item %d: %d stage attributions", chain, i, len(r.Stages))
			}
		}
	}
	if err := cp.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestChainRejectsBadStageLists pins the validation edges: stage counts
// outside [1, MaxChainStages], unknown functions, empty input and
// empty items. A one-stage chain is the plain call.
func TestChainRejectsBadStageLists(t *testing.T) {
	cp, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cp.InstallBank(); err != nil {
		t.Fatal(err)
	}
	in := []byte{1, 2, 3, 4}
	if _, err := cp.CallChain(nil, in); err == nil {
		t.Error("0-stage chain accepted")
	}
	one, err := cp.CallChain([]string{"sha256"}, in)
	if err != nil {
		t.Fatalf("1-stage chain: %v", err)
	}
	if call, err := cp.Call("sha256", in); err != nil || !bytes.Equal(one.Output, call.Output) {
		t.Errorf("1-stage chain diverges from the call (%v)", err)
	}
	long := make([]string, 9)
	for i := range long {
		long[i] = "sha256"
	}
	if _, err := cp.CallChain(long, in); err == nil {
		t.Error("9-stage chain accepted")
	}
	if _, err := cp.CallChain([]string{"sha256", "nope"}, in); err == nil {
		t.Error("unknown stage accepted")
	}
	if _, err := cp.CallChain([]string{"sha256", "aes128"}, nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := execNames(cp, nil, "sha256", "aes128"); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := execNames(cp, [][]byte{{1}, nil}, "sha256", "aes128"); err == nil {
		t.Error("empty batch item accepted")
	}
}
