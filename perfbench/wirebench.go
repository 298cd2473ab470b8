package main

import (
	"agilefpga/internal/wire"
)

// wireReps is how many passes over the frames each figure takes the
// median of.
const wireReps = 5

// wireCost replays the workload's own frames — each request as the
// client sends it and its reference output as the server answers —
// through the wire package's public Append and Decode functions, and
// reports the median nanoseconds per frame for each direction.
func wireCost(reqs []request) (encodeNS, decodeNS float64, err error) {
	frames := make([][]byte, 0, 2*len(reqs))
	var buf []byte
	encode := func() {
		frames = frames[:0]
		for i := range reqs {
			r := &reqs[i]
			start := len(buf)
			if r.chained() {
				buf = wire.AppendChainRequest(buf, &wire.ChainRequest{ID: uint64(i), Stages: r.ids, Payload: r.input})
			} else {
				buf = wire.AppendRequest(buf, &wire.Request{ID: uint64(i), Fn: r.ids[0], Payload: r.input})
			}
			frames = append(frames, buf[start:])
			start = len(buf)
			buf = wire.AppendResponse(buf, &wire.Response{ID: uint64(i), Card: 0, Payload: r.want})
			frames = append(frames, buf[start:])
		}
	}
	n := float64(2 * len(reqs))
	enc := make([]float64, 0, wireReps)
	dec := make([]float64, 0, wireReps)
	var req wire.Request
	var chain wire.ChainRequest
	var resp wire.Response
	for rep := 0; rep < wireReps; rep++ {
		buf = buf[:0]
		t0 := nowNS()
		encode()
		t1 := nowNS()
		for i := range reqs {
			if reqs[i].chained() {
				_, err = wire.DecodeChainRequestInto(&chain, frames[2*i])
			} else {
				_, err = wire.DecodeRequestInto(&req, frames[2*i])
			}
			if err != nil {
				return 0, 0, err
			}
			if _, err = wire.DecodeResponseInto(&resp, frames[2*i+1]); err != nil {
				return 0, 0, err
			}
		}
		t2 := nowNS()
		enc = append(enc, float64(t1-t0)/n)
		dec = append(dec, float64(t2-t1)/n)
	}
	return median(enc), median(dec), nil
}
