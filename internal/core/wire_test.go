package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"strings"
	"testing"

	"crucial/internal/totalorder"
)

// sampleInvocation exercises every built-in tag type in one message.
func sampleInvocation() Invocation {
	return Invocation{
		Ref:    Ref{Type: "KVMap", Key: "table/7"},
		Method: "MultiPut",
		Args: []any{
			nil, true, false,
			int(-42), int32(7), int64(-1 << 40), uint64(1 << 60),
			float32(1.5), float64(math.Pi),
			"hello, wire", []byte{0, 1, 2, 255},
			[]int{3, -1, 4}, []int64{-1, 1 << 50}, []float64{1.25, -2.5},
			[][]float64{{1, 2}, {3}},
			[]string{"a", "bb"},
			[]any{int64(1), "nested", []any{false}},
			map[string]any{"k": int64(9), "s": "v"},
			map[string]string{"a": "b"},
			map[string]float64{"pi": math.Pi},
			map[string]int64{"n": -7},
		},
		Init:    []any{int64(3), "init"},
		Persist: true,
		Trace:   TraceContext{TraceID: 0xDEADBEEF, SpanID: 42},
	}
}

func TestWireInvocationRoundTrip(t *testing.T) {
	in := sampleInvocation()
	data, err := EncodeInvocation(in)
	if err != nil {
		t.Fatal(err)
	}
	if !isWire(data) {
		t.Fatal("EncodeInvocation did not produce fast-codec framing")
	}
	out, err := DecodeInvocation(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %#v\nout: %#v", in, out)
	}
}

func TestWireResponseRoundTrip(t *testing.T) {
	in := Response{
		Results: []any{int64(99), "ok", []float64{1, 2, 3}, map[string]any{"x": true}},
		Err:     "dso: object rebalancing in progress",
	}
	data, err := EncodeResponse(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeResponse(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %#v\nout: %#v", in, out)
	}
}

// TestWireConcreteTypesPreserved pins the contract that decode reproduces
// the exact concrete types gob used to deliver, so object implementations'
// type switches keep working.
func TestWireConcreteTypesPreserved(t *testing.T) {
	args := sampleInvocation().Args
	data, err := EncodeInvocation(Invocation{Ref: Ref{Type: "T", Key: "k"}, Method: "m", Args: args})
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeInvocation(data)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range args {
		if want == nil {
			if out.Args[i] != nil {
				t.Errorf("arg %d: want nil, got %T", i, out.Args[i])
			}
			continue
		}
		if got, want := reflect.TypeOf(out.Args[i]), reflect.TypeOf(want); got != want {
			t.Errorf("arg %d: concrete type %v, want %v", i, got, want)
		}
	}
}

// customPoint is a user type outside the built-in tag set; it must travel
// through the per-value gob fallback under the RegisterValue contract.
type customPoint struct{ X, Y int64 }

func TestWireGobFallbackForRegisteredValue(t *testing.T) {
	RegisterValue(customPoint{})
	before := ReadCodecStats()
	in := Invocation{
		Ref:    Ref{Type: "T", Key: "k"},
		Method: "m",
		Args:   []any{customPoint{X: 3, Y: -9}, int64(5)},
	}
	data, err := EncodeInvocation(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeInvocation(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("fallback round trip mismatch: %#v vs %#v", in, out)
	}
	after := ReadCodecStats()
	if after.FallbackValues <= before.FallbackValues {
		t.Error("fallback counter did not advance")
	}
	if after.FastEncodes <= before.FastEncodes || after.FastDecodes <= before.FastDecodes {
		t.Error("fast-codec counters did not advance")
	}
}

func TestWireUnregisteredTypeFails(t *testing.T) {
	type unregistered struct{ Z chan int } // gob cannot encode channels
	_, err := EncodeInvocation(Invocation{
		Ref: Ref{Type: "T", Key: "k"}, Method: "m",
		Args: []any{unregistered{}},
	})
	if err == nil {
		t.Fatal("unencodable argument accepted")
	}
}

// TestLegacyGobFramesStillDecode is the cross-version wire-compatibility
// test: frames produced by the pre-codec (whole-message gob) format must
// keep decoding, because a rolling upgrade has old clients talking to new
// servers and vice versa.
func TestLegacyGobFramesStillDecode(t *testing.T) {
	in := sampleInvocation()
	legacy, err := encodeInvocationGob(in)
	if err != nil {
		t.Fatal(err)
	}
	if isWire(legacy) {
		t.Fatal("legacy gob frame unexpectedly carries the codec magic")
	}
	before := ReadCodecStats()
	out, err := DecodeInvocation(legacy)
	if err != nil {
		t.Fatalf("legacy invocation frame rejected: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("legacy round trip mismatch:\n in: %#v\nout: %#v", in, out)
	}
	if ReadCodecStats().LegacyGobDecodes <= before.LegacyGobDecodes {
		t.Error("legacy decode counter did not advance")
	}

	resp := Response{Results: []any{int64(1)}, Err: "boom"}
	legacyResp, err := encodeResponseGob(resp)
	if err != nil {
		t.Fatal(err)
	}
	gotResp, err := DecodeResponse(legacyResp)
	if err != nil {
		t.Fatalf("legacy response frame rejected: %v", err)
	}
	if !reflect.DeepEqual(resp, gotResp) {
		t.Fatalf("legacy response mismatch: %#v vs %#v", resp, gotResp)
	}
}

// TestGobFirstByteNeverMagic documents why the magic sniff is sound: a
// gob stream begins with a message length whose first byte is either a
// small direct value (<= 0x7F) or a byte-count marker (>= 0xF8), never
// 0xC7. If this ever fails, the codec needs real framing.
func TestGobFirstByteNeverMagic(t *testing.T) {
	for _, v := range []any{
		sampleInvocation(),
		Response{Err: strings.Repeat("x", 500)},
		Response{Results: []any{make([]byte, 1<<16)}},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		first := buf.Bytes()[0]
		if first == wireMagic {
			t.Fatalf("gob stream begins with codec magic 0x%02x", first)
		}
		if first > 0x7F && first < 0xF8 {
			t.Fatalf("gob first byte 0x%02x outside documented ranges", first)
		}
	}
}

func TestWireRejectsUnknownVersion(t *testing.T) {
	data, err := EncodeInvocation(sampleInvocation())
	if err != nil {
		t.Fatal(err)
	}
	data[1] = wireVersion + 1
	if _, err := DecodeInvocation(data); err == nil {
		t.Fatal("unknown codec version accepted")
	}
}

func TestWireRejectsCrossedKinds(t *testing.T) {
	inv, err := EncodeInvocation(sampleInvocation())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeResponse(inv); err == nil {
		t.Fatal("invocation frame decoded as response")
	}
}

// TestWireTruncationNeverPanics walks every prefix of a valid message
// through the decoder: all must fail cleanly (or, for the full message,
// succeed), never panic or over-allocate.
func TestWireTruncationNeverPanics(t *testing.T) {
	data, err := EncodeInvocation(sampleInvocation())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(data); i++ {
		if _, err := DecodeInvocation(data[:i]); err == nil {
			t.Fatalf("truncated frame (%d/%d bytes) decoded successfully", i, len(data))
		}
	}
	if _, err := DecodeInvocation(data); err != nil {
		t.Fatal(err)
	}
}

// TestWireHostileCountRejected feeds a frame whose value count claims far
// more elements than the payload could hold; the decoder must reject it
// without attempting the allocation.
func TestWireHostileCountRejected(t *testing.T) {
	data := []byte{wireMagic, wireVersion, wireInvocation,
		1, 'T', 1, 'k', 1, 'm',
		0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, // huge arg count
	}
	if _, err := DecodeInvocation(data); err == nil {
		t.Fatal("hostile count accepted")
	}
}

func TestAppendInvocationReusesBuffer(t *testing.T) {
	inv := sampleInvocation()
	buf := make([]byte, 0, 4096)
	out, err := AppendInvocation(buf, inv)
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &buf[:1][0] {
		t.Error("AppendInvocation reallocated despite sufficient capacity")
	}
	got, err := DecodeInvocation(out)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inv, got) {
		t.Fatal("round trip through reused buffer mismatch")
	}
}

// TestWireDecodeDoesNotAliasInput pins the pooled-buffer contract: after
// decoding, mutating the input frame must not affect the decoded message.
func TestWireDecodeDoesNotAliasInput(t *testing.T) {
	in := Invocation{
		Ref: Ref{Type: "T", Key: "k"}, Method: "m",
		Args: []any{[]byte{1, 2, 3}, "str"},
	}
	data, err := EncodeInvocation(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeInvocation(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 0xAA
	}
	if !reflect.DeepEqual(out.Args[0], []byte{1, 2, 3}) {
		t.Error("decoded []byte aliases the input frame")
	}
	if out.Args[1] != "str" {
		t.Error("decoded string corrupted after input reuse")
	}
}

// Control-frame decoders copy what they return: the rpc server recycles a
// request buffer when its handler returns, while a propose's payload lives
// on in the total-order queue and a lease's snapshot in the client cache.
func TestControlFramesCopyOutOfInput(t *testing.T) {
	prop := AppendPropose(nil, ProposeMsg{ID: totalorder.MsgID{Origin: "n1", Seq: 1}, Payload: []byte("payload")})
	lease, err := AppendLeaseResponse(nil, LeaseResponse{Granted: true, Snapshot: []byte("snapshot")})
	if err != nil {
		t.Fatal(err)
	}
	gotProp, err := DecodePropose(prop)
	if err != nil {
		t.Fatal(err)
	}
	gotLease, err := DecodeLeaseResponse(lease)
	if err != nil {
		t.Fatal(err)
	}
	for i := range prop {
		prop[i] = 0
	}
	for i := range lease {
		lease[i] = 0
	}
	if string(gotProp.Payload) != "payload" || gotProp.ID.Origin != "n1" {
		t.Fatalf("propose aliases its input: %+v", gotProp)
	}
	if string(gotLease.Snapshot) != "snapshot" {
		t.Fatalf("lease response aliases its input: %q", gotLease.Snapshot)
	}
}

// One message kind never parses as another, and trailing bytes are
// refused: a revocation sent to the wrong handler fails loudly.
func TestControlFramesRejectOtherKinds(t *testing.T) {
	rev := AppendLeaseRevoke(nil, Revocation{Ref: Ref{Type: "T", Key: "k"}, Epoch: 1})
	if _, err := DecodeInvalidate(rev); err == nil {
		t.Fatal("lease revoke decoded as a cache invalidation")
	}
	if _, err := DecodeLeaseRevoke(append(rev, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if _, err := DecodeLeaseRevoke(rev); err != nil {
		t.Fatal(err)
	}
}
