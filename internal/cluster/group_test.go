package cluster

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"agilefpga/internal/algos"
	"agilefpga/internal/core"
	"agilefpga/internal/metrics"
)

// items wraps inputs as untraced, deadline-free submission items.
func items(inputs [][]byte) []Item {
	out := make([]Item, len(inputs))
	for i, in := range inputs {
		out[i] = Item{Input: in}
	}
	return out
}

// TestSubmitGroupMatchesIndividualCalls is the cross-client batching
// correctness bar: a group submitted as one queue entry returns, job
// for job, exactly the bytes the same inputs yield as independent
// blocking calls — and every child reports the one card the carrier
// was routed to.
func TestSubmitGroupMatchesIndividualCalls(t *testing.T) {
	cl, err := New(2, ModeAffinity, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	f := algos.CRC32()
	inputs := make([][]byte, 9)
	for i := range inputs {
		inputs[i] = []byte{byte(i), 2, 3, byte(i * 3)}
	}
	pendings := cl.Submit([]uint16{f.ID()}, items(inputs), false)
	if len(pendings) != len(inputs) {
		t.Fatalf("got %d pendings for %d inputs", len(pendings), len(inputs))
	}
	firstCard := -1
	for i, p := range pendings {
		res, card, err := p.Wait()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		want, _ := f.Exec(inputs[i])
		if !bytes.Equal(res.Output, want) {
			t.Fatalf("job %d: output %x, want %x", i, res.Output, want)
		}
		if firstCard == -1 {
			firstCard = card
		} else if card != firstCard {
			t.Fatalf("job %d served by card %d, group routed to %d", i, card, firstCard)
		}
	}
	if err := cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitGroupServedAsOneBatch pins the mechanism, not just the
// outputs: with the workers parked, a whole group occupies one queue
// slot, and once served it counts as one coalesced run of len(group)
// jobs.
func TestSubmitGroupServedAsOneBatch(t *testing.T) {
	reg := metrics.NewRegistry()
	cfg := smallCfg()
	cfg.Metrics = reg
	cl, err := NewWithOptions(1, ModeReplicate, cfg, Options{Queue: 2})
	if err != nil {
		t.Fatal(err)
	}
	cl.startOnce.Do(func() {}) // park the workers
	inputs := [][]byte{{1, 1, 1, 1}, {2, 2, 2, 2}, {3, 3, 3, 3}, {4, 4, 4, 4}}
	pendings := cl.Submit([]uint16{algos.CRC32().ID()}, items(inputs), false)
	// Four jobs, one slot: a second group still fits the 2-deep queue.
	more := cl.Submit([]uint16{algos.CRC32().ID()}, items(inputs[:2]), false)
	for _, p := range append(pendings, more...) {
		select {
		case <-p.Done():
			t.Fatal("group settled with no worker running")
		default:
		}
	}
	cl.startWorkers()
	for i, p := range append(pendings, more...) {
		if _, _, err := p.Wait(); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	card := metrics.L("card", "0")
	if n := reg.Counter("agile_cluster_coalesced_jobs_total", card).Value(); n < 4 {
		t.Fatalf("coalesced jobs = %d, want >= 4 (the first group batches)", n)
	}
	if n := reg.Counter("agile_cluster_submitted_total", card).Value(); n != 6 {
		t.Fatalf("submitted counter = %d, want 6 (counts jobs, not carriers)", n)
	}
	cl.Close()
}

// TestSubmitGroupExpiredChildFailsAlone: one child's context expires in
// the queue; it must fail with the context error while its siblings
// are served normally.
func TestSubmitGroupExpiredChildFailsAlone(t *testing.T) {
	reg := metrics.NewRegistry()
	cfg := smallCfg()
	cfg.Metrics = reg
	cl, err := NewWithOptions(1, ModeReplicate, cfg, Options{Queue: 4})
	if err != nil {
		t.Fatal(err)
	}
	cl.startOnce.Do(func() {})
	ctx, cancel := context.WithCancel(context.Background())
	inputs := [][]byte{{1, 2, 3, 4}, {5, 6, 7, 8}, {9, 10, 11, 12}}
	group := items(inputs)
	group[1].Ctx = ctx
	pendings := cl.Submit([]uint16{algos.CRC32().ID()}, group, false)
	cancel()
	cl.startWorkers()
	if _, _, err := pendings[1].Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("expired child err = %v, want context.Canceled", err)
	}
	for _, i := range []int{0, 2} {
		res, _, err := pendings[i].Wait()
		if err != nil {
			t.Fatalf("live child %d: %v", i, err)
		}
		want, _ := algos.CRC32().Exec(inputs[i])
		if !bytes.Equal(res.Output, want) {
			t.Fatalf("live child %d: wrong output", i)
		}
	}
	if n := reg.Counter("agile_cluster_expired_total", metrics.L("card", "0")).Value(); n != 1 {
		t.Fatalf("expired counter = %d, want 1", n)
	}
	cl.Close()
}

// TestSubmitGroupErrorPaths: unknown functions fail every child with
// the routing error; an empty group is a no-op; an item the card cannot
// stage fails alone at admission while its neighbours are served; a
// stopped cluster fails the group with ErrStopped.
func TestSubmitGroupErrorPaths(t *testing.T) {
	cl, err := New(1, ModeReplicate, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range cl.Submit([]uint16{0xFFFF}, items([][]byte{{1}, {2}}), false) {
		if _, _, err := p.Wait(); !errors.Is(err, ErrUnknownFunction) {
			t.Fatalf("err = %v, want ErrUnknownFunction", err)
		}
	}
	if got := cl.Submit([]uint16{algos.CRC32().ID()}, items(nil), false); len(got) != 0 {
		t.Fatalf("empty group returned %d pendings", len(got))
	}
	f := algos.CRC32()
	window := cl.cards[0].Controller().InWindowBytes()
	inputs := [][]byte{bytes.Repeat([]byte{1}, 64), make([]byte, window+1), bytes.Repeat([]byte{3}, 64)}
	pendings := cl.Submit([]uint16{f.ID()}, items(inputs), false)
	if _, card, err := pendings[1].Wait(); !errors.Is(err, core.ErrBadInput) || card != -1 {
		t.Fatalf("oversized item: card %d, err %v; want card -1, core.ErrBadInput", card, err)
	}
	for _, i := range []int{0, 2} {
		res, _, err := pendings[i].Wait()
		if err != nil {
			t.Fatalf("item %d failed beside an oversized neighbour: %v", i, err)
		}
		if want, _ := f.Exec(inputs[i]); !bytes.Equal(res.Output, want) {
			t.Fatalf("item %d: wrong output", i)
		}
	}
	cl.Close()
	for _, p := range cl.Submit([]uint16{algos.CRC32().ID()}, items([][]byte{{1}}), false) {
		if _, _, err := p.Wait(); !errors.Is(err, ErrStopped) {
			t.Fatalf("err after close = %v, want ErrStopped", err)
		}
	}
}
