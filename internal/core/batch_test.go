package core

import (
	"bytes"
	"testing"

	"agilefpga/internal/algos"
)

// execNames runs inputs through the named stages as one request.
func execNames(cp *CoProcessor, inputs [][]byte, names ...string) (*BatchResult, error) {
	fns, err := cp.Lookup(names...)
	if err != nil {
		return nil, err
	}
	return cp.Exec(Request{Stages: fns, Inputs: inputs})
}

func TestCallBatchMatchesSequential(t *testing.T) {
	cp := newCP(t, Config{})
	if _, err := cp.Install(algos.SHA256()); err != nil {
		t.Fatal(err)
	}
	inputs := make([][]byte, 8)
	for i := range inputs {
		inputs[i] = make([]byte, 512)
		for j := range inputs[i] {
			inputs[i][j] = byte(i*37 + j)
		}
	}
	batch, err := execNames(cp, inputs, "sha256")
	if err != nil {
		t.Fatal(err, "sha256")
	}
	if len(batch.Results) != len(inputs) {
		t.Fatalf("outputs = %d", len(batch.Results))
	}
	for i, in := range inputs {
		want, _ := algos.SHA256().Exec(in)
		if !bytes.Equal(batch.Results[i].Output, want) {
			t.Fatalf("item %d output mismatch", i)
		}
	}
	// First item misses (configuration), the rest hit.
	if batch.Hits != len(inputs)-1 {
		t.Errorf("hits = %d, want %d", batch.Hits, len(inputs)-1)
	}
	// Pipelining can only help.
	if batch.Latency > batch.SequentialLatency {
		t.Errorf("batched (%v) slower than sequential (%v)", batch.Latency, batch.SequentialLatency)
	}
	if batch.Latency == 0 {
		t.Error("zero batch latency")
	}
}

func TestCallBatchOverlapWins(t *testing.T) {
	// With enough items, pipelined latency must be meaningfully below
	// the sequential sum: at least the smaller of total-bus and
	// total-card time is hidden.
	cp := newCP(t, Config{})
	if _, err := cp.Install(algos.SHA256()); err != nil {
		t.Fatal(err)
	}
	inputs := make([][]byte, 32)
	for i := range inputs {
		inputs[i] = make([]byte, 4096)
		for j := range inputs[i] {
			inputs[i][j] = byte(i + j)
		}
	}
	if _, err := cp.Call("sha256", inputs[0]); err != nil { // warm
		t.Fatal(err)
	}
	batch, err := execNames(cp, inputs, "sha256")
	if err != nil {
		t.Fatal(err, "sha256")
	}
	if float64(batch.Latency) > 0.85*float64(batch.SequentialLatency) {
		t.Errorf("overlap too weak: %v vs %v", batch.Latency, batch.SequentialLatency)
	}
}

func TestCallBatchValidation(t *testing.T) {
	cp := newCP(t, Config{})
	if _, err := cp.Install(algos.CRC32()); err != nil {
		t.Fatal(err)
	}
	if _, err := execNames(cp, nil, "crc32"); err == nil {
		t.Error("empty batch accepted", "crc32")
	}
	if _, err := execNames(cp, [][]byte{{1, 2}, nil}, "crc32"); err == nil {
		t.Error("empty item accepted", "crc32")
	}
	if _, err := execNames(cp, [][]byte{{1}}, "nope"); err == nil {
		t.Error("unknown function accepted", "nope")
	}
	huge := make([]byte, cp.Controller().InWindowBytes()+1)
	if _, err := execNames(cp, [][]byte{huge}, "crc32"); err == nil {
		t.Error("oversized item accepted", "crc32")
	}
}

func TestCallBatchStateConsistency(t *testing.T) {
	// A batch leaves the card in exactly the state individual calls
	// would: resident function, clean invariants, coherent stats.
	cp := newCP(t, Config{})
	if _, err := cp.Install(algos.DES()); err != nil {
		t.Fatal(err)
	}
	inputs := [][]byte{[]byte("block001"), []byte("block002"), []byte("block003")}
	if _, err := execNames(cp, inputs, "des"); err != nil {
		t.Fatal(err, "des")
	}
	st := cp.Stats()
	if st.Requests != 3 || st.Misses != 1 || st.Hits != 2 {
		t.Errorf("stats = %+v", st)
	}
	if !cp.Controller().Resident(algos.IDDES) {
		t.Error("function not resident after batch")
	}
	if err := cp.Controller().CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestCardErrorChargesBusTime pins the bus accounting of a failing
// request: the host spent the input burst, the mailbox writes and the
// status reads before the card reported the error, so the PCI clock
// advances by the same amount whether the failure is a lone call or a
// one-item batch.
func TestCardErrorChargesBusTime(t *testing.T) {
	in := []byte{1, 2, 3, 4}
	call := newCP(t, Config{})
	if _, err := call.CallID(999, in); err == nil {
		t.Fatal("unknown function accepted")
	}
	batch := newCP(t, Config{})
	if _, err := batch.Exec(Request{Stages: []uint16{999}, Inputs: [][]byte{in}}); err == nil {
		t.Fatal("unknown function accepted in a batch")
	}
	failed := call.pciDom.Cycles()
	if failed == 0 {
		t.Fatal("failing call charged no bus cycles")
	}
	if got := batch.pciDom.Cycles(); got != failed {
		t.Errorf("failing 1-item batch charged %d bus cycles, failing call %d", got, failed)
	}
}
