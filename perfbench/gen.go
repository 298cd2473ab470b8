package main

import (
	"fmt"
	"math/rand/v2"

	"agilefpga"
	"agilefpga/internal/algos"
)

// A request is one generated call: a single function or an on-card
// chain over one input, with the host-software reference output.
type request struct {
	names []string
	ids   []uint16
	input []byte
	want  []byte
}

func (r *request) chained() bool { return len(r.ids) > 1 }

// A workload names one seeded traffic mix and the shape of the
// deployment that serves it.
type workload struct {
	name string
	// cards is the number of cards per cluster (cold-mix runs one
	// bare card, not a cluster).
	cards int
	// seqLen is the length of the generated sequence the closed-loop
	// callers cycle through.
	seqLen int
	// warm is how many requests set-up issues before timing starts.
	warm int
	// pins is the length of the sequence's fixed opening, one request
	// per function and chain in an order under which affinity routing
	// keeps every card's share resident (0 = no such opening).
	pins int
	// replay is the length of the virtual-time replay; its statistics
	// skip the first warm requests (0 = the workload reads virtual
	// latency from the serving registries instead).
	replay int
	// ladder is the number of requests each ladder rung replays.
	ladder int
	gen    func(rng *rand.Rand, n int) []request
}

var workloads = []*workload{
	{name: "cold-mix", cards: 1, seqLen: 32768, warm: 512, replay: 4096, ladder: 1024, gen: genColdMix},
	{name: "hot-bulk", cards: 2, seqLen: 2560, warm: 64, pins: 10, replay: 1088, ladder: 192, gen: genHotBulk},
	{name: "net-routed", cards: 2, seqLen: 32768, warm: 256, pins: 9, replay: 0, ladder: 2048, gen: genNetRouted},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// generate draws the workload's request sequence from seed. The same
// seed always yields the same sequence.
func (w *workload) generate(seed uint64, n int) []request {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	return w.gen(rng, n)
}

// fillReferences computes every request's expected output on the
// host-software path, stage by stage for chains.
func fillReferences(reqs []request) error {
	host, err := agilefpga.New(agilefpga.Config{Rows: rows, Cols: cols})
	if err != nil {
		return err
	}
	for i := range reqs {
		out := reqs[i].input
		for _, name := range reqs[i].names {
			if out, _, err = host.RunHost(name, out); err != nil {
				return fmt.Errorf("reference %d (%s): %w", i, name, err)
			}
		}
		reqs[i].want = out
	}
	return nil
}

const (
	rows = 32
	cols = 40
	// zipfS is the skew of the Zipf draws over function rank.
	zipfS = 1.1
)

func newRequest(rng *rand.Rand, size int, fns ...*algos.Function) request {
	r := request{input: make([]byte, size)}
	for i := range r.input {
		r.input[i] = byte(rng.Uint32())
	}
	for _, f := range fns {
		r.names = append(r.names, f.Name())
		r.ids = append(r.ids, f.ID())
	}
	return r
}

func mustFns(names ...string) []*algos.Function {
	fns := make([]*algos.Function, len(names))
	for i, n := range names {
		f, err := algos.ByName(n)
		if err != nil {
			panic(err) // the names below are compile-time constants
		}
		fns[i] = f
	}
	return fns
}

// genColdMix draws a Zipf(1.1) function over the whole bank, ranked in
// bank order, with an input of 1 to 4 of the function's natural blocks.
func genColdMix(rng *rand.Rand, n int) []request {
	bank := algos.Bank()
	z := rand.NewZipf(rng, zipfS, 1, uint64(len(bank)-1))
	reqs := make([]request, n)
	for i := range reqs {
		f := bank[z.Uint64()]
		reqs[i] = newRequest(rng, f.BlockBytes*(1+rng.IntN(4)), f)
	}
	return reqs
}

// genHotBulk draws uniformly over eight DSP and crypto functions with
// 3–5 KiB inputs (4 KiB mean, in 8-byte steps); one request in five is
// a two-stage chain.
// The mix is dealt from shuffled decks that hold it exactly, because the
// behavioural models' costs differ by an order of magnitude and a free
// draw would let the seed move the average cost per request.
//
// The sequence opens with one request of every function and chain in a
// fixed order. Affinity routing pins each to a card on first sight, so
// this order decides placement; it is one under which both cards hold
// their whole share (31 and 33 of 40 frames), whatever the seed.
func genHotBulk(rng *rand.Rand, n int) []request {
	singles := mustFns("aes128", "des", "sha256", "md5", "crc32", "fir16", "fft64", "matmul8")
	chains := [][]*algos.Function{mustFns("sha256", "aes128"), mustFns("fir16", "fft64")}
	pins := [][]*algos.Function{
		mustFns("aes128"), mustFns("des"), mustFns("md5"), mustFns("sha256"), mustFns("crc32"),
		mustFns("fir16"), mustFns("matmul8"), mustFns("fft64"), chains[0], chains[1],
	}
	var deck [][]*algos.Function
	for k := 0; k < 4; k++ {
		for _, f := range singles {
			deck = append(deck, []*algos.Function{f})
		}
		deck = append(deck, chains...)
	}
	reqs := make([]request, n)
	for i := range reqs {
		size := 3072 + 8*rng.IntN(257)
		if i < len(pins) {
			reqs[i] = newRequest(rng, size, pins[i]...)
			continue
		}
		k := (i - len(pins)) % len(deck)
		if k == 0 {
			rng.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
		}
		reqs[i] = newRequest(rng, size, deck[k]...)
	}
	return reqs
}

// genNetRouted draws 64-byte requests, Zipf(1.1) over eight small
// functions; one request in ten is a sha256→aes128 chain.
//
// Like hot-bulk's, the sequence opens with one request per function and
// chain in a fixed order; in it a backend's two cards hold 26 and 25 of
// their 40 frames. Set-up sends this opening to every backend directly,
// because a router spill otherwise introduces functions to the replica
// in an order set by timing, and some orders over-subscribe a card.
func genNetRouted(rng *rand.Rand, n int) []request {
	fns := mustFns("crc32", "gfmul8", "fir16", "des", "md5", "aes128", "sha1", "sha256")
	chain := mustFns("sha256", "aes128")
	pins := [][]*algos.Function{
		mustFns("crc32"), mustFns("fir16"), mustFns("gfmul8"), mustFns("des"), mustFns("aes128"),
		mustFns("md5"), mustFns("sha256"), mustFns("sha1"), chain,
	}
	z := rand.NewZipf(rng, zipfS, 1, uint64(len(fns)-1))
	reqs := make([]request, n)
	for i := range reqs {
		if i < len(pins) {
			reqs[i] = newRequest(rng, 64, pins[i]...)
		} else if rng.IntN(10) == 0 {
			reqs[i] = newRequest(rng, 64, chain...)
		} else {
			reqs[i] = newRequest(rng, 64, fns[z.Uint64()])
		}
	}
	return reqs
}
