package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"agilefpga"
	"agilefpga/internal/algos"
	"agilefpga/internal/client"
	"agilefpga/internal/compress"
	"agilefpga/internal/core"
	"agilefpga/internal/fpga"
	"agilefpga/internal/mcu"
	"agilefpga/internal/metrics"
	"agilefpga/internal/sim"
)

// The layer ladder replays one request sequence at each module's public
// entry point, bottom to top, on freshly built identical state, and
// wraps every call in a span. A layer's self time is its rung's per-op
// wall time minus the rung beneath it.

// Rung names, in the order the spans file and the report list them.
const (
	rungAlgos    = "algos"
	rungCompress = "compress"
	rungMCU      = "mcu"
	rungCore     = "core"
	rungCoreReg  = "core+metrics"
	rungAPI      = "api"
	rungCluster  = "cluster"
	rungServer   = "server"
	rungRouter   = "router"
)

var rungOrder = []string{rungAlgos, rungCompress, rungMCU, rungCore, rungCoreReg, rungAPI, rungCluster, rungServer, rungRouter}

// ladderReps is how many times each rung replays the sequence, each on
// fresh state; per-op figures are the median over the repetitions.
const ladderReps = 5

// A span is one call the benchmark made into a layer.
type span struct {
	rung    uint8
	rep     uint8
	req     int32
	startNS int64
	endNS   int64
}

// A rungImpl is one rung built on fresh state.
type rungImpl struct {
	// call issues request i and returns its output (nil when the rung
	// produces none) and the serving card (-1 when not applicable).
	call func(ctx context.Context, i int, r *request) ([]byte, int, error)
	// after, if set, runs outside the span once call returns.
	after func(i int, r *request)
	stop  func(ctx context.Context) error
}

// A rungResult is one rung's figures over its repetitions.
type rungResult struct {
	perOpUS     float64 // median over reps of span time per request
	allocsPerOp float64 // median over reps
	p50US       float64 // median span of the median repetition
}

// A ladder holds the shared state the rungs need: card placement (from
// the cluster rung), the cold loads the mcu rung observed, and the
// compressed images the compress rung decodes.
type ladder struct {
	w       *workload
	reqs    []request
	place   []int      // serving card of each request
	cold    [][]uint16 // functions cold-loaded by each request
	stats   mcu.Stats  // mcu counters over one repetition
	corePCI float64    // virtual PCI µs per request at the core rung
	spans   []span
	results map[string]rungResult
	failed  int
	calls   int
}

func newLadder(w *workload, reqs []request) *ladder {
	return &ladder{
		w:       w,
		reqs:    reqs,
		place:   make([]int, len(reqs)),
		cold:    make([][]uint16, len(reqs)),
		results: make(map[string]rungResult),
	}
}

// run climbs the whole ladder ladderReps times. Repetitions are the
// outer loop, so a slow spell of the host spreads over every rung
// instead of landing on one. The cluster rung leads because its
// affinity decisions place every request for the card-level rungs, and
// the mcu rung precedes the compress rung, which decodes what the mcu
// rung saw cold-loaded.
func (l *ladder) run(ctx context.Context) error {
	order := []string{rungCluster, rungAlgos, rungMCU, rungCompress, rungCore, rungCoreReg, rungAPI, rungServer, rungRouter}
	type acc struct{ perOp, allocs, p50 []float64 }
	accs := make(map[string]*acc)
	durs := make([]float64, len(l.reqs))
	n := float64(len(l.reqs))
	for rep := 0; rep < ladderReps; rep++ {
		for _, name := range order {
			total, mallocs, err := l.runRung(ctx, name, rep, durs)
			if err != nil {
				return fmt.Errorf("ladder rung %s: %w", name, err)
			}
			a := accs[name]
			if a == nil {
				a = &acc{}
				accs[name] = a
			}
			a.perOp = append(a.perOp, float64(total)/1e3/n)
			a.allocs = append(a.allocs, float64(mallocs)/n)
			a.p50 = append(a.p50, median(durs))
		}
	}
	for name, a := range accs {
		l.results[name] = rungResult{perOpUS: median(a.perOp), allocsPerOp: median(a.allocs), p50US: median(a.p50)}
	}
	return nil
}

// runRung replays the sequence once on a freshly built rung, recording
// a span per call and each call's duration (µs) into durs. It returns
// the summed span time (ns) and the heap allocations made.
func (l *ladder) runRung(ctx context.Context, name string, rep int, durs []float64) (int64, uint64, error) {
	id := uint8(indexOf(rungOrder, name))
	impl, err := l.build(ctx, name, rep)
	if err != nil {
		return 0, 0, err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var total int64
	for i := range l.reqs {
		r := &l.reqs[i]
		t0 := nowNS()
		out, card, err := impl.call(ctx, i, r)
		t1 := nowNS()
		l.spans = append(l.spans, span{rung: id, rep: uint8(rep), req: int32(i), startNS: t0, endNS: t1})
		total += t1 - t0
		durs[i] = float64(t1-t0) / 1e3
		if impl.after != nil {
			impl.after(i, r)
		}
		if name == rungCluster && rep == 0 {
			l.place[i] = card
		}
		if name != rungCompress {
			l.calls++
			if err != nil || !bytes.Equal(out, r.want) {
				l.failed++
			}
		}
	}
	runtime.ReadMemStats(&after)
	return total, after.Mallocs - before.Mallocs, impl.stop(ctx)
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

func noStop(context.Context) error { return nil }

func (l *ladder) build(ctx context.Context, name string, rep int) (*rungImpl, error) {
	switch name {
	case rungAlgos:
		return l.algosRung()
	case rungCompress:
		return l.compressRung()
	case rungMCU:
		return l.mcuRung(rep)
	case rungCore:
		return l.coreRung(nil, rep)
	case rungCoreReg:
		return l.coreRung(metrics.NewRegistry(), -1)
	case rungAPI:
		return l.apiRung()
	case rungCluster:
		return l.clusterRung()
	case rungServer:
		return l.netRung(ctx, 0)
	case rungRouter:
		return l.netRung(ctx, l.routerBackends())
	}
	return nil, fmt.Errorf("unknown rung %q", name)
}

// routerBackends is the backend count behind the router rung: the
// net-routed fleet's two, one elsewhere.
func (l *ladder) routerBackends() int {
	if l.w.name == "net-routed" {
		return 2
	}
	return 1
}

func bankByID() map[uint16]*algos.Function {
	m := make(map[uint16]*algos.Function)
	for _, f := range algos.Bank() {
		m[f.ID()] = f
	}
	return m
}

func (l *ladder) algosRung() (*rungImpl, error) {
	bank := bankByID()
	return &rungImpl{
		call: func(_ context.Context, _ int, r *request) ([]byte, int, error) {
			out := r.input
			for _, id := range r.ids {
				var err error
				if out, err = bank[id].Exec(out); err != nil {
					return nil, -1, err
				}
			}
			return out, -1, nil
		},
		stop: noStop,
	}, nil
}

// compressRung decodes, for each request, the compressed image of every
// function the mcu rung saw it cold-load.
func (l *ladder) compressRung() (*rungImpl, error) {
	g := fpga.Geometry{Rows: rows, Cols: cols}
	codec, err := compress.New("framediff", g.FrameBytes())
	if err != nil {
		return nil, err
	}
	blobs := make(map[uint16][]byte)
	for i, f := range algos.Bank() {
		_, blob, err := core.BuildImage(g, f, codec, uint16(i+1))
		if err != nil {
			return nil, err
		}
		blobs[f.ID()] = blob
	}
	return &rungImpl{
		call: func(_ context.Context, i int, _ *request) ([]byte, int, error) {
			for _, fn := range l.cold[i] {
				if _, err := codec.Decompress(blobs[fn]); err != nil {
					return nil, -1, err
				}
			}
			return nil, -1, nil
		},
		stop: noStop,
	}, nil
}

// newCards builds the workload's card count of host-driver cards with
// the whole bank installed.
func (l *ladder) newCards(reg *metrics.Registry) ([]*core.CoProcessor, error) {
	cards := make([]*core.CoProcessor, l.w.cards)
	for c := range cards {
		cp, err := core.New(coreConfig(reg))
		if err != nil {
			return nil, err
		}
		if _, err := cp.InstallBank(); err != nil {
			return nil, err
		}
		cards[c] = cp
	}
	return cards, nil
}

// mcuRung drives each card's microcontroller directly. The first
// repetition records which functions every request cold-loaded and the
// card counters.
func (l *ladder) mcuRung(rep int) (*rungImpl, error) {
	cards, err := l.newCards(nil)
	if err != nil {
		return nil, err
	}
	ctrls := make([]*mcu.Controller, len(cards))
	misses := make([]uint64, len(cards))
	for c, cp := range cards {
		ctrls[c] = cp.Controller()
	}
	impl := &rungImpl{
		call: func(_ context.Context, i int, r *request) ([]byte, int, error) {
			ctrl := ctrls[l.place[i]]
			if r.chained() {
				out, _, _, err := ctrl.ExecuteChain(r.ids, r.input)
				return out, l.place[i], err
			}
			out, _, err := ctrl.Execute(r.ids[0], r.input)
			return out, l.place[i], err
		},
		stop: func(context.Context) error {
			if rep != 0 {
				return nil
			}
			l.stats = mcu.Stats{}
			for _, ctrl := range ctrls {
				l.stats = addStats(l.stats, ctrl.Stats())
			}
			return nil
		},
	}
	if rep == 0 {
		impl.after = func(i int, r *request) {
			c := l.place[i]
			ctrl := ctrls[c]
			m := ctrl.Stats().Misses
			if m == misses[c] {
				return
			}
			misses[c] = m
			if !r.chained() {
				l.cold[i] = []uint16{r.ids[0]}
				return
			}
			for _, st := range ctrl.LastChainStages() {
				if !st.Hit {
					l.cold[i] = append(l.cold[i], st.Fn)
				}
			}
		}
	}
	return impl, nil
}

func addStats(a, b mcu.Stats) mcu.Stats {
	a.Requests += b.Requests
	a.Hits += b.Hits
	a.Misses += b.Misses
	a.Evictions += b.Evictions
	a.FramesLoaded += b.FramesLoaded
	a.DecompCacheHits += b.DecompCacheHits
	a.ChainRuns += b.ChainRuns
	a.ChainStages += b.ChainStages
	a.ChainHandoffBytes += b.ChainHandoffBytes
	a.Phases.AddAll(b.Phases)
	return a
}

// coreRung calls the host driver by function id. With a registry it is
// the metrics-on twin whose difference prices the telemetry.
func (l *ladder) coreRung(reg *metrics.Registry, rep int) (*rungImpl, error) {
	cards, err := l.newCards(reg)
	if err != nil {
		return nil, err
	}
	var pci time.Duration
	return &rungImpl{
		call: func(_ context.Context, i int, r *request) ([]byte, int, error) {
			cp := cards[l.place[i]]
			if r.chained() {
				res, err := cp.CallChainID(r.ids, r.input)
				if err != nil {
					return nil, -1, err
				}
				pci += res.Breakdown.Get(sim.PhasePCI).Duration()
				return res.Output, l.place[i], nil
			}
			res, err := cp.CallID(r.ids[0], r.input)
			if err != nil {
				return nil, -1, err
			}
			pci += res.Breakdown.Get(sim.PhasePCI).Duration()
			return res.Output, l.place[i], nil
		},
		stop: func(context.Context) error {
			if rep == 0 {
				l.corePCI = float64(pci.Nanoseconds()) / 1e3 / float64(len(l.reqs))
			}
			return nil
		},
	}, nil
}

// apiRung calls the root package's CoProcessor by function name.
func (l *ladder) apiRung() (*rungImpl, error) {
	cards := make([]*agilefpga.CoProcessor, l.w.cards)
	for c := range cards {
		cp, err := agilefpga.New(cardConfig(false))
		if err != nil {
			return nil, err
		}
		if err := cp.InstallAll(); err != nil {
			return nil, err
		}
		cards[c] = cp
	}
	return &rungImpl{
		call: func(_ context.Context, i int, r *request) ([]byte, int, error) {
			cp := cards[l.place[i]]
			if r.chained() {
				res, err := cp.CallChain(r.names, r.input)
				if err != nil {
					return nil, -1, err
				}
				return res.Output, l.place[i], nil
			}
			res, err := cp.Call(r.names[0], r.input)
			if err != nil {
				return nil, -1, err
			}
			return res.Output, l.place[i], nil
		},
		stop: noStop,
	}, nil
}

// clusterRung submits each request to an affinity cluster and waits.
func (l *ladder) clusterRung() (*rungImpl, error) {
	cl, err := agilefpga.NewCluster(l.w.cards, agilefpga.ModeAffinity, cardConfig(false))
	if err != nil {
		return nil, err
	}
	d := &deployment{w: l.w, cl: cl}
	return &rungImpl{
		call: func(_ context.Context, _ int, r *request) ([]byte, int, error) {
			res, card, err := d.submit(r).Wait()
			if err != nil {
				return nil, card, err
			}
			return res.Output, card, nil
		},
		stop: func(context.Context) error { cl.Close(); return nil },
	}, nil
}

// netRung is client→server when routed is 0, else client→router→
// that many servers. Batching and registries stay off so the rung
// prices the request path alone.
func (l *ladder) netRung(ctx context.Context, routed int) (*rungImpl, error) {
	var addr string
	var stopSys func(context.Context) error
	if routed == 0 {
		b, err := startBackend(l.w.cards, 0, nil)
		if err != nil {
			return nil, err
		}
		addr, stopSys = b.addr, b.stop
	} else {
		f, err := startFleet(ctx, routed, l.w.cards, 0, false)
		if err != nil {
			return nil, err
		}
		addr, stopSys = f.addr, f.stop
	}
	cli, err := client.Dial(addr, client.Options{PoolSize: 1})
	if err != nil {
		return nil, errors.Join(err, stopSys(ctx))
	}
	return &rungImpl{
		call: func(ctx context.Context, _ int, r *request) ([]byte, int, error) {
			if r.chained() {
				return cli.CallChain(ctx, r.ids, r.input)
			}
			return cli.Call(ctx, r.ids[0], r.input)
		},
		stop: func(ctx context.Context) error { return errors.Join(cli.Close(), stopSys(ctx)) },
	}, nil
}
