package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"agilefpga"
	"agilefpga/internal/client"
	"agilefpga/internal/cluster"
	"agilefpga/internal/core"
	"agilefpga/internal/fpga"
	"agilefpga/internal/metrics"
	"agilefpga/internal/router"
	"agilefpga/internal/server"
)

// netBatchWindow is the cross-client batch window of the net-routed
// backends.
const netBatchWindow = 16

func cardConfig(withMetrics bool) agilefpga.Config {
	return agilefpga.Config{Rows: rows, Cols: cols, Codec: "framediff", Policy: "lru", Metrics: withMetrics}
}

func coreConfig(reg *metrics.Registry) core.Config {
	return core.Config{Geometry: fpga.Geometry{Rows: rows, Cols: cols}, Codec: "framediff", Policy: "lru", Metrics: reg}
}

// A backend is one in-process agilenetd: a cluster behind a wire
// server on a loopback port.
type backend struct {
	cl   *cluster.Cluster
	srv  *server.Server
	reg  *metrics.Registry
	addr string
	done chan error
}

func startBackend(cards, batchWindow int, reg *metrics.Registry) (*backend, error) {
	cl, err := cluster.New(cards, cluster.ModeAffinity, coreConfig(reg))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cl.Close()
		return nil, err
	}
	b := &backend{
		cl:   cl,
		srv:  server.New(cl, server.Options{BatchWindow: batchWindow, Metrics: reg}),
		reg:  reg,
		addr: ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { b.done <- b.srv.Serve(ln) }()
	return b, nil
}

func (b *backend) stop(ctx context.Context) error {
	err := b.srv.Shutdown(ctx)
	<-b.done
	b.cl.Close()
	return err
}

// A fleet is a router in front of in-process backends.
type fleet struct {
	backends []*backend
	rt       *router.Router
	addr     string
	done     chan error
}

func startFleet(ctx context.Context, n, cards, batchWindow int, withMetrics bool) (*fleet, error) {
	f := &fleet{done: make(chan error, 1)}
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		var reg *metrics.Registry
		if withMetrics {
			reg = metrics.NewRegistry()
		}
		b, err := startBackend(cards, batchWindow, reg)
		if err != nil {
			return nil, errors.Join(err, f.stopBackends(ctx))
		}
		f.backends = append(f.backends, b)
		addrs = append(addrs, b.addr)
	}
	rt, err := router.New(addrs, router.Options{})
	if err != nil {
		return nil, errors.Join(err, f.stopBackends(ctx))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, rt.Close(), f.stopBackends(ctx))
	}
	f.rt, f.addr = rt, ln.Addr().String()
	go func() { f.done <- rt.Serve(ln) }()
	return f, nil
}

func (f *fleet) stopBackends(ctx context.Context) error {
	var errs []error
	for _, b := range f.backends {
		errs = append(errs, b.stop(ctx))
	}
	return errors.Join(errs...)
}

func (f *fleet) stop(ctx context.Context) error {
	err := f.rt.Shutdown(ctx)
	<-f.done
	return errors.Join(err, f.stopBackends(ctx))
}

// pin issues reqs, in order, to every backend directly.
func (f *fleet) pin(ctx context.Context, reqs []request) error {
	for _, b := range f.backends {
		cli, err := client.Dial(b.addr, client.Options{PoolSize: 1})
		if err != nil {
			return err
		}
		for i := range reqs {
			r := &reqs[i]
			var out []byte
			if r.chained() {
				out, _, err = cli.CallChain(ctx, r.ids, r.input)
			} else {
				out, _, err = cli.Call(ctx, r.ids[0], r.input)
			}
			if err == nil && !bytes.Equal(out, r.want) {
				err = fmt.Errorf("pinning request %d: output differs from the host reference", i)
			}
			if err != nil {
				return errors.Join(err, cli.Close())
			}
		}
		if err := cli.Close(); err != nil {
			return err
		}
	}
	return nil
}

func (f *fleet) registries() []*metrics.Registry {
	regs := make([]*metrics.Registry, 0, len(f.backends))
	for _, b := range f.backends {
		regs = append(regs, b.reg)
	}
	return regs
}

func (f *fleet) spills() uint64 {
	var n uint64
	for _, b := range f.rt.Backends() {
		n += b.Spills
	}
	return n
}

// A deployment is one workload's system under test, built and warmed.
type deployment struct {
	w    *workload
	card *agilefpga.CoProcessor // cold-mix
	cl   *agilefpga.Cluster     // hot-bulk
	// net-routed
	fl      *fleet
	cli     *client.Client
	retries atomic.Uint64
}

// deploy builds the workload's system. withMetrics turns on every
// registry the deployment can carry (the net-routed backends always
// have theirs, as agilenetd does).
func deploy(ctx context.Context, w *workload, withMetrics bool) (*deployment, error) {
	d := &deployment{w: w}
	switch w.name {
	case "cold-mix":
		cp, err := agilefpga.New(cardConfig(withMetrics))
		if err != nil {
			return nil, err
		}
		if err := cp.InstallAll(); err != nil {
			return nil, err
		}
		d.card = cp
	case "hot-bulk":
		cl, err := agilefpga.NewCluster(w.cards, agilefpga.ModeAffinity, cardConfig(withMetrics))
		if err != nil {
			return nil, err
		}
		d.cl = cl
	case "net-routed":
		fl, err := startFleet(ctx, 2, w.cards, netBatchWindow, true)
		if err != nil {
			return nil, err
		}
		cli, err := client.Dial(fl.addr, client.Options{
			PoolSize: 2,
			OnRetry:  func(int, error) { d.retries.Add(1) },
		})
		if err != nil {
			return nil, errors.Join(err, fl.stop(ctx))
		}
		d.fl, d.cli = fl, cli
	default:
		return nil, fmt.Errorf("no deployment for workload %q", w.name)
	}
	return d, nil
}

// warm issues the first requests of the sequence one at a time, so
// the timed run starts from the residency the traffic itself builds.
// Behind a router it first sends the sequence's pinning opening to
// every backend directly.
func (d *deployment) warm(ctx context.Context, reqs []request) error {
	if d.fl != nil {
		if err := d.fl.pin(ctx, reqs[:d.w.pins]); err != nil {
			return err
		}
	}
	for i := range reqs[:d.w.warm] {
		out, _, err := d.call(ctx, &reqs[i])
		if err != nil {
			return fmt.Errorf("warm-up request %d: %w", i, err)
		}
		if !bytes.Equal(out, reqs[i].want) {
			return fmt.Errorf("warm-up request %d: output differs from the host reference", i)
		}
	}
	return nil
}

func (d *deployment) close(ctx context.Context) error {
	switch {
	case d.cl != nil:
		d.cl.Close()
	case d.fl != nil:
		return errors.Join(d.cli.Close(), d.fl.stop(ctx))
	}
	return nil
}

// call issues one request synchronously, returning the output and the
// simulated round-trip latency (-1 where the path does not carry it).
func (d *deployment) call(ctx context.Context, r *request) ([]byte, time.Duration, error) {
	switch {
	case d.card != nil:
		if r.chained() {
			res, err := d.card.CallChain(r.names, r.input)
			if err != nil {
				return nil, 0, err
			}
			return res.Output, res.Latency, nil
		}
		res, err := d.card.Call(r.names[0], r.input)
		if err != nil {
			return nil, 0, err
		}
		return res.Output, res.Latency, nil
	case d.cl != nil:
		res, _, err := d.submit(r).Wait()
		if err != nil {
			return nil, 0, err
		}
		return res.Output, res.Latency, nil
	default:
		var out []byte
		var err error
		if r.chained() {
			out, _, err = d.cli.CallChain(ctx, r.ids, r.input)
		} else {
			out, _, err = d.cli.Call(ctx, r.ids[0], r.input)
		}
		return out, -1, err
	}
}

func (d *deployment) submit(r *request) *agilefpga.Pending {
	if r.chained() {
		return d.cl.SubmitChain(r.names, r.input)
	}
	return d.cl.Submit(r.names[0], r.input)
}

// shape reports the closed loop's callers and requests each keeps
// outstanding.
func (w *workload) shape() (callers, outstanding int) {
	switch w.name {
	case "hot-bulk":
		return 2, 8
	case "net-routed":
		return 64, 1
	}
	return 1, 1
}

// A loadResult is one timed closed-loop run.
type loadResult struct {
	completions       []completion
	attempted, failed int
	start             int64
	dur               time.Duration
	// cpuMarks holds the process CPU time (ns) read at every window
	// boundary, -1 where unavailable.
	cpuMarks []int64
}

// runLoad drives the closed loop for dur. Each caller walks its own
// stride of the sequence from offset onwards, cycling; a request in
// flight when time runs out still completes and is verified.
func (d *deployment) runLoad(ctx context.Context, reqs []request, offset int, dur time.Duration) loadResult {
	callers, outstanding := d.w.shape()
	type part struct {
		cs                []completion
		attempted, failed int
	}
	parts := make([]part, callers)
	windows := windowsFor(dur)
	res := loadResult{start: nowNS(), dur: dur, cpuMarks: make([]int64, windows+1)}
	end := res.start + int64(dur)
	var wg sync.WaitGroup
	wg.Add(callers + 1)
	go func() {
		defer wg.Done()
		width := int64(dur) / int64(windows)
		for k := range res.cpuMarks {
			if wait := res.start + int64(k)*width - nowNS(); wait > 0 {
				select {
				case <-time.After(time.Duration(wait)): //lint:wallclock window boundaries are wall time
				case <-ctx.Done():
				}
			}
			res.cpuMarks[k] = cpuTimeNS()
		}
	}()
	for c := 0; c < callers; c++ {
		go func(c int) {
			defer wg.Done()
			p := &parts[c]
			p.cs = make([]completion, 0, 1<<14)
			next := offset + c
			pick := func() *request {
				r := &reqs[next%len(reqs)]
				next += callers
				return r
			}
			record := func(r *request, t0 int64, out []byte, err error) {
				t1 := nowNS()
				p.attempted++
				if err != nil || !bytes.Equal(out, r.want) {
					p.failed++
					return
				}
				p.cs = append(p.cs, completion{doneNS: t1, latNS: t1 - t0})
			}
			if outstanding == 1 {
				for nowNS() < end && ctx.Err() == nil {
					r := pick()
					t0 := nowNS()
					out, _, err := d.call(ctx, r)
					record(r, t0, out, err)
				}
				return
			}
			type slot struct {
				r  *request
				p  *agilefpga.Pending
				t0 int64
			}
			ring := make([]slot, 0, outstanding)
			for {
				for len(ring) < outstanding && nowNS() < end && ctx.Err() == nil {
					r := pick()
					ring = append(ring, slot{r: r, t0: nowNS(), p: d.submit(r)})
				}
				if len(ring) == 0 {
					return
				}
				s := ring[0]
				ring = append(ring[:0], ring[1:]...)
				var out []byte
				got, _, err := s.p.Wait()
				if err == nil {
					out = got.Output
				}
				record(s.r, s.t0, out, err)
			}
		}(c)
	}
	wg.Wait()
	for _, p := range parts {
		res.completions = append(res.completions, p.cs...)
		res.attempted += p.attempted
		res.failed += p.failed
	}
	return res
}
