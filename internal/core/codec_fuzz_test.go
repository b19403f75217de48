package core

import (
	"bytes"
	"reflect"
	"testing"

	"crucial/internal/totalorder"
)

// FuzzInvocationRoundTrip builds invocations from fuzzer-chosen scalars
// plus structured args derived from the raw byte input, and asserts
// encode→decode is the identity.
func FuzzInvocationRoundTrip(f *testing.F) {
	f.Add("Counter", "c/1", "Add", int64(1), 3.14, true, []byte("xyz"))
	f.Add("", "", "", int64(-1<<62), -0.0, false, []byte{})
	f.Add("KVMap", "k", "Put", int64(0), 1e308, true, []byte{0xC7, 0x01, 'I'})
	f.Fuzz(func(t *testing.T, typ, key, method string, i int64, fv float64, b bool, raw []byte) {
		in := Invocation{
			Ref:    Ref{Type: typ, Key: key},
			Method: method,
			Args: []any{
				i, fv, b, string(raw),
				[]int64{i, -i}, []float64{fv},
				[]any{i, string(raw), []any{b}},
				map[string]any{key: i},
				map[string]int64{method: i},
			},
			Persist: b,
			Trace:   TraceContext{TraceID: uint64(i), SpanID: uint64(len(raw))},
		}
		if len(raw) > 0 {
			// Append a copy: decode must produce an equal, non-aliased slice.
			in.Args = append(in.Args, append([]byte(nil), raw...))
		}
		data, err := EncodeInvocation(in)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		out, err := DecodeInvocation(data)
		if err != nil {
			t.Fatalf("decode of freshly encoded frame: %v", err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip mismatch:\n in: %#v\nout: %#v", in, out)
		}
	})
}

// FuzzDecodeInvocation throws raw bytes at the decoder. Any outcome is
// acceptable except a panic or runaway allocation; valid frames must
// re-encode to something that decodes equal.
func FuzzDecodeInvocation(f *testing.F) {
	seed, _ := EncodeInvocation(Invocation{
		Ref: Ref{Type: "T", Key: "k"}, Method: "m",
		Args: []any{int64(1), "s", []float64{2}},
	})
	f.Add(seed)
	f.Add([]byte{wireMagic, wireVersion, wireInvocation})
	f.Add([]byte{wireMagic, wireVersion + 9, wireInvocation, 0, 0})
	f.Add([]byte{0x00, 0x01, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		inv, err := DecodeInvocation(data)
		if err != nil {
			return
		}
		re, err := EncodeInvocation(inv)
		if err != nil {
			// A decoded frame can hold values only the legacy gob path
			// produces for user-registered types; skip those.
			t.Skip()
		}
		again, err := DecodeInvocation(re)
		if err != nil {
			t.Fatalf("re-decode of re-encoded frame: %v", err)
		}
		if !reflect.DeepEqual(inv, again) {
			t.Fatalf("re-encode not stable:\n 1: %#v\n 2: %#v", inv, again)
		}
	})
}

// FuzzDecodeResponse mirrors FuzzDecodeInvocation for the response side.
func FuzzDecodeResponse(f *testing.F) {
	seed, _ := EncodeResponse(Response{Results: []any{int64(7), "r"}, Err: "e"})
	f.Add(seed)
	f.Add([]byte{wireMagic, wireVersion, wireResponse})
	f.Add([]byte{wireMagic, wireVersion, wireResponse, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := DecodeResponse(data)
		if err != nil {
			return
		}
		re, err := EncodeResponse(resp)
		if err != nil {
			t.Skip()
		}
		again, err := DecodeResponse(re)
		if err != nil {
			t.Fatalf("re-decode of re-encoded frame: %v", err)
		}
		if !reflect.DeepEqual(resp, again) {
			t.Fatalf("re-encode not stable:\n 1: %#v\n 2: %#v", resp, again)
		}
	})
}

// fuzzControlFrame is the shared body of the control-frame fuzz targets:
// decoding arbitrary bytes must never panic, and a frame that decodes must
// re-encode to one that decodes to the same message. Seeds are valid
// frames plus truncated and mislabelled variants.
func fuzzControlFrame[T any](f *testing.F, enc func([]byte, T) ([]byte, error), dec func([]byte) (T, error), seeds ...T) {
	for _, m := range seeds {
		data, err := enc(nil, m)
		if err != nil {
			f.Fatalf("encode seed %#v: %v", m, err)
		}
		if got, err := dec(data); err != nil || !reflect.DeepEqual(got, m) {
			f.Fatalf("seed %#v decodes to %#v (err %v)", m, got, err)
		}
		f.Add(data)
		f.Add(data[:len(data)-1])
		f.Add(append(append([]byte(nil), data...), 0))
		mislabelled := append([]byte(nil), data...)
		mislabelled[2] = wireInvocation
		f.Add(mislabelled)
	}
	f.Add([]byte{wireMagic, wireVersion})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := dec(data)
		if err != nil {
			return
		}
		re, err := enc(nil, m)
		if err != nil {
			// A decoded value list can hold a gob-tagged value of a type
			// this process never registered; skip those.
			t.Skip()
		}
		again, err := dec(re)
		if err != nil {
			t.Fatalf("re-decode of re-encoded frame: %v", err)
		}
		if !reflect.DeepEqual(m, again) {
			// NaN floats in a value list never compare equal; their
			// encodings do.
			if re2, _ := enc(nil, again); !bytes.Equal(re, re2) {
				t.Fatalf("re-encode not stable:\n 1: %#v\n 2: %#v", m, again)
			}
		}
	})
}

// noErr adapts an encoder that cannot fail to fuzzControlFrame.
func noErr[T any](enc func([]byte, T) []byte) func([]byte, T) ([]byte, error) {
	return func(dst []byte, m T) ([]byte, error) { return enc(dst, m), nil }
}

var fuzzMsgID = totalorder.MsgID{Origin: "n1", Seq: 42}

func FuzzDecodePropose(f *testing.F) {
	inv, _ := EncodeInvocation(Invocation{Ref: Ref{Type: "AtomicLong", Key: "k"}, Method: "IncrementAndGet"})
	fuzzControlFrame(f, noErr(AppendPropose), DecodePropose,
		ProposeMsg{ID: fuzzMsgID, Payload: append([]byte{0}, inv...), Fence: 7},
		ProposeMsg{ID: totalorder.MsgID{}, Payload: []byte{1}})
}

func FuzzDecodeTimestamp(f *testing.F) {
	fuzzControlFrame(f, noErr(AppendTimestamp), DecodeTimestamp, 0, 1<<63)
}

func FuzzDecodeFinal(f *testing.F) {
	fuzzControlFrame(f, noErr(AppendFinal), DecodeFinal, FinalMsg{ID: fuzzMsgID, TS: 9})
}

func FuzzDecodeFinalResp(f *testing.F) {
	fuzzControlFrame(f, noErr(AppendFinalResp), DecodeFinalResp,
		FinalResp{}, FinalResp{Version: 12, Known: true})
}

func FuzzDecodeAbort(f *testing.F) {
	fuzzControlFrame(f, noErr(AppendAbort), DecodeAbort, fuzzMsgID)
}

func FuzzDecodeFetch(f *testing.F) {
	fuzzControlFrame(f, noErr(AppendFetch), DecodeFetch, Ref{Type: "AtomicLong", Key: "k"})
}

func FuzzDecodeLeaseRequest(f *testing.F) {
	fuzzControlFrame(f, noErr(AppendLeaseRequest), DecodeLeaseRequest,
		LeaseRequest{Ref: Ref{Type: "AtomicLong", Key: "k"}, Persist: true, HolderAddr: "cache-01"},
		LeaseRequest{Ref: Ref{Type: "KVMap", Key: ""}, Replica: true, HolderAddr: "n2"})
}

func FuzzDecodeLeaseResponse(f *testing.F) {
	fuzzControlFrame(f, AppendLeaseResponse, DecodeLeaseResponse,
		LeaseResponse{Reason: "write in flight"},
		LeaseResponse{Granted: true, TTLMillis: 500, Epoch: 3, Version: 41,
			Init: []any{int64(5), "x", []float64{1.5}}, Snapshot: []byte{0x0c, 0xff}})
}

func FuzzDecodeLeaseRevoke(f *testing.F) {
	fuzzControlFrame(f, noErr(AppendLeaseRevoke), DecodeLeaseRevoke,
		Revocation{Ref: Ref{Type: "AtomicLong", Key: "k"}, Epoch: 4})
}

func FuzzDecodeInvalidate(f *testing.F) {
	fuzzControlFrame(f, noErr(AppendInvalidate), DecodeInvalidate,
		Revocation{Ref: Ref{Type: "AtomicLong", Key: "k"}, Epoch: 4})
}
