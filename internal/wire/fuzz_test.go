package wire

import (
	"errors"
	"testing"
)

// FuzzDecodeFrame throws arbitrary bytes at the frame decoder and the two
// body parsers. The contract under fuzz: never panic, never allocate
// proportionally to a hostile length claim, and fail only with the typed
// sentinels so callers can errors.Is their way to a diagnosis. Valid
// frames must survive a decode → re-encode → re-decode round trip with
// identical field values (byte-exactness is only guaranteed for canonical
// encoder output — binary.Uvarint tolerates overlong varints on input).
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add(AppendRequestV(nil, &Request{ID: 1, Src: 3, Dst: 12}, Version))
	f.Add(AppendRequestV(nil, &Request{ID: 300, Src: 128, Dst: 129, DeadlineMS: 250,
		Trace: 0xabc, Span: 2, Flags: FlagSampled}, Version))
	f.Add(AppendResponseV(nil, &Response{ID: 1, Status: 200, LatencyRounds: 5, Trace: 7}, Version))
	f.Add(AppendResponseV(nil, &Response{ID: 7, Status: 429, Shard: -1, Err: "queue full"}, Version))
	if sr, err := AppendSetRequestV(nil, &SetRequest{ID: 2, N: 16, Pairs: [][2]int{{0, 8}, {9, 1}},
		Trace: 5, Span: 2, Flags: FlagSampled}, Version); err == nil {
		f.Add(sr)
	}
	// Set requests at the planner's PE cap and one past it: 16,384 is
	// serve.MaxPlanPEs, written out because wire cannot import serve.
	for _, n := range []int{16384, 16385} {
		sr, err := AppendSetRequestV(nil, &SetRequest{ID: 6, N: n,
			Pairs: [][2]int{{0, n - 1}, {n - 2, 1}}}, Version)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(sr)
	}
	f.Add(AppendSetResponseV(nil, &SetResponse{ID: 2, Status: 200, Rounds: 3,
		Bound: 4, Width: 2, Batches: 1, Residual: 1, Units: 17, Strategy: StrategyPeel, Trace: 9}, Version))
	f.Add(AppendSetResponseV(nil, &SetResponse{ID: 5, Status: 400, Err: "bad set"}, Version))
	if dr, err := AppendDeltaRequest(nil, &DeltaRequest{ID: 3, Session: 7, DeadlineMS: 250,
		Remove: [][2]int{{0, 8}}, Add: [][2]int{{0, 2}}, Trace: 0xabc, Span: 1, Flags: 1}); err == nil {
		f.Add(dr)
	}
	f.Add(AppendDeltaResponse(nil, &DeltaResponse{ID: 3, Session: 7, Status: 200,
		Rounds: 2, Width: 2, Size: 5, Fallback: true, Trace: 9}))
	f.Add(AppendDeltaResponse(nil, &DeltaResponse{ID: 4, Session: 1, Status: 400, Err: "bad delta"}))
	f.Add([]byte{0x03, 0x03, 0x01, 0x10, 0xff}) // set request with hostile count claim
	// request one byte short of its trace block
	f.Add([]byte{0x08, 0x01, 0x01, 0x03, 0x0c, 0x00, 0x00, 0x00})
	f.Add([]byte{0x02, 0x7f, 0x00}) // unknown type
	// request with overflowing deadline_ms (> MaxInt64 milliseconds)
	f.Add([]byte{0x11, 0x01, 0x01, 0x00, 0x01,
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x00, 0x00, 0x00})
	// delta request with hostile nremove claim
	f.Add([]byte{0x09, 0x05, 0x01, 0x01, 0x00, 0x80, 0x80, 0x80, 0x80, 0x08})

	typed := func(err error) bool {
		return errors.Is(err, ErrTruncated) || errors.Is(err, ErrFrameTooLarge) ||
			errors.Is(err, ErrBadFrame) || errors.Is(err, ErrUnknownType)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, body, n, err := DecodeFrame(data)
		if err != nil {
			if !typed(err) {
				t.Fatalf("DecodeFrame(% x): untyped error %v", data, err)
			}
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("DecodeFrame consumed %d of %d bytes", n, len(data))
		}
		switch typ {
		case TypeRequest:
			var req Request
			if perr := ParseRequestV(body, &req, Version); perr != nil {
				if !typed(perr) {
					t.Fatalf("ParseRequestV: untyped error %v", perr)
				}
				return
			}
			re := AppendRequestV(nil, &req, Version)
			_, rbody, _, rerr := DecodeFrame(re)
			var back Request
			if rerr != nil || ParseRequestV(rbody, &back, Version) != nil || back != req {
				t.Fatalf("request roundtrip mismatch: % x -> %+v -> % x -> %+v (%v)",
					data[:n], req, re, back, rerr)
			}
		case TypeResponse:
			var resp Response
			if perr := ParseResponseV(body, &resp, Version); perr != nil {
				if !typed(perr) {
					t.Fatalf("ParseResponseV: untyped error %v", perr)
				}
				return
			}
			re := AppendResponseV(nil, &resp, Version)
			_, rbody, _, rerr := DecodeFrame(re)
			var back Response
			if rerr != nil || ParseResponseV(rbody, &back, Version) != nil || back != resp {
				t.Fatalf("response roundtrip mismatch: % x -> %+v -> % x -> %+v (%v)",
					data[:n], resp, re, back, rerr)
			}
		case TypeSetRequest:
			var req SetRequest
			if perr := ParseSetRequestV(body, &req, Version); perr != nil {
				if !typed(perr) {
					t.Fatalf("ParseSetRequestV: untyped error %v", perr)
				}
				return
			}
			re, aerr := AppendSetRequestV(nil, &req, Version)
			if aerr != nil {
				t.Fatalf("re-encode of parsed set request failed: %v", aerr)
			}
			_, rbody, _, rerr := DecodeFrame(re)
			var back SetRequest
			if rerr != nil || ParseSetRequestV(rbody, &back, Version) != nil ||
				back.ID != req.ID || back.N != req.N || len(back.Pairs) != len(req.Pairs) ||
				back.Trace != req.Trace || back.Span != req.Span || back.Flags != req.Flags {
				t.Fatalf("set request roundtrip mismatch: % x -> %+v -> % x -> %+v (%v)",
					data[:n], req, re, back, rerr)
			}
			for i := range back.Pairs {
				if back.Pairs[i] != req.Pairs[i] {
					t.Fatalf("set request pair %d mismatch: %+v vs %+v", i, req, back)
				}
			}
		case TypeSetResponse:
			var resp SetResponse
			if perr := ParseSetResponseV(body, &resp, Version); perr != nil {
				if !typed(perr) {
					t.Fatalf("ParseSetResponseV: untyped error %v", perr)
				}
				return
			}
			re := AppendSetResponseV(nil, &resp, Version)
			_, rbody, _, rerr := DecodeFrame(re)
			var back SetResponse
			if rerr != nil || ParseSetResponseV(rbody, &back, Version) != nil || back != resp {
				t.Fatalf("set response roundtrip mismatch: % x -> %+v -> % x -> %+v (%v)",
					data[:n], resp, re, back, rerr)
			}
		case TypeDeltaRequest:
			var req DeltaRequest
			if perr := ParseDeltaRequest(body, &req); perr != nil {
				if !typed(perr) {
					t.Fatalf("ParseDeltaRequest: untyped error %v", perr)
				}
				return
			}
			if req.Deadline() < 0 {
				t.Fatalf("negative deadline %v survived ParseDeltaRequest", req.Deadline())
			}
			re, aerr := AppendDeltaRequest(nil, &req)
			if aerr != nil {
				t.Fatalf("re-encode of parsed delta request failed: %v", aerr)
			}
			_, rbody, _, rerr := DecodeFrame(re)
			var back DeltaRequest
			if rerr != nil || ParseDeltaRequest(rbody, &back) != nil ||
				back.ID != req.ID || back.Session != req.Session ||
				back.DeadlineMS != req.DeadlineMS || back.Trace != req.Trace ||
				back.Span != req.Span || back.Flags != req.Flags ||
				len(back.Remove) != len(req.Remove) || len(back.Add) != len(req.Add) {
				t.Fatalf("delta request roundtrip mismatch: % x -> %+v -> % x -> %+v (%v)",
					data[:n], req, re, back, rerr)
			}
			for i := range back.Remove {
				if back.Remove[i] != req.Remove[i] {
					t.Fatalf("delta remove %d mismatch: %+v vs %+v", i, req, back)
				}
			}
			for i := range back.Add {
				if back.Add[i] != req.Add[i] {
					t.Fatalf("delta add %d mismatch: %+v vs %+v", i, req, back)
				}
			}
		case TypeDeltaResponse:
			var resp DeltaResponse
			if perr := ParseDeltaResponse(body, &resp); perr != nil {
				if !typed(perr) {
					t.Fatalf("ParseDeltaResponse: untyped error %v", perr)
				}
				return
			}
			re := AppendDeltaResponse(nil, &resp)
			_, rbody, _, rerr := DecodeFrame(re)
			var back DeltaResponse
			if rerr != nil || ParseDeltaResponse(rbody, &back) != nil || back != resp {
				t.Fatalf("delta response roundtrip mismatch: % x -> %+v -> % x -> %+v (%v)",
					data[:n], resp, re, back, rerr)
			}
		default:
			t.Fatalf("DecodeFrame returned unknown type %#x without error", typ)
		}
	})
}
