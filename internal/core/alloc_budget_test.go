package core

import (
	"testing"

	"crucial/internal/totalorder"
)

// Allocation budgets on the RPC hot path, enforced by `make verify`
// (alloc-guard target). PR 3 brought the invocation round trip down to 8
// allocs/op; these tests turn that benchmark number into a regression
// gate so later instrumentation (like the per-object tracker) cannot
// quietly pay for itself with hot-path garbage. If a test fails, either
// remove the new allocations or consciously raise the budget here and in
// BENCH_rpc.json.
const (
	invocationRoundTripAllocBudget = 8
	responseRoundTripAllocBudget   = 6
	smrControlRoundTripAllocBudget = 3
)

// TestInvocationRoundTripAllocBudget pins the encode+decode cost of a
// representative hot-path invocation (see benchInvocation).
func TestInvocationRoundTripAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counting is meaningless under -race")
	}
	inv := benchInvocation()
	buf := make([]byte, 0, 512)
	got := testing.AllocsPerRun(200, func() {
		data, err := AppendInvocation(buf[:0], inv)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeInvocation(data); err != nil {
			t.Fatal(err)
		}
	})
	if got > invocationRoundTripAllocBudget {
		t.Fatalf("invocation round trip allocates %.1f/op, budget %d",
			got, invocationRoundTripAllocBudget)
	}
}

// TestResponseRoundTripAllocBudget pins the response side.
func TestResponseRoundTripAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counting is meaningless under -race")
	}
	resp := benchResponse()
	buf := make([]byte, 0, 512)
	got := testing.AllocsPerRun(200, func() {
		data, err := AppendResponse(buf[:0], resp)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeResponse(data); err != nil {
			t.Fatal(err)
		}
	})
	if got > responseRoundTripAllocBudget {
		t.Fatalf("response round trip allocates %.1f/op, budget %d",
			got, responseRoundTripAllocBudget)
	}
}

// TestSMRControlRoundTripAllocBudget pins the control frames of one Skeen
// round between two replicas: PROPOSE and its timestamp reply, FINAL and
// its version reply, each encoded and decoded once. The decoders' copies
// (the origin string twice, the payload once) are the whole budget.
func TestSMRControlRoundTripAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counting is meaningless under -race")
	}
	payload, err := AppendInvocation(nil, Invocation{
		Ref: Ref{Type: "AtomicLong", Key: "counter/17"}, Method: "IncrementAndGet",
		ClientID: 3, Seq: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	id := totalorder.MsgID{Origin: "n1", Seq: 12345}
	buf := make([]byte, 0, 512)
	got := testing.AllocsPerRun(200, func() {
		p, err := DecodePropose(AppendPropose(buf[:0], ProposeMsg{ID: id, Payload: payload, Fence: 0xfeed}))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeTimestamp(AppendTimestamp(buf[:0], 7)); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeFinal(AppendFinal(buf[:0], FinalMsg{ID: p.ID, TS: 7})); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeFinalResp(AppendFinalResp(buf[:0], FinalResp{Version: 8, Known: true})); err != nil {
			t.Fatal(err)
		}
	})
	if got > smrControlRoundTripAllocBudget {
		t.Fatalf("SMR control round trip allocates %.1f/op, budget %d",
			got, smrControlRoundTripAllocBudget)
	}
}
