package server

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"crucial/internal/core"
	"crucial/internal/membership"
	"crucial/internal/objects"
	"crucial/internal/ring"
	"crucial/internal/rpc"
	"crucial/internal/totalorder"
)

func validConfig(net rpc.Transport, dir *membership.Directory) Config {
	return Config{
		ID:        "n1",
		Addr:      "n1",
		Transport: net,
		Registry:  objects.BuiltinRegistry(),
		Directory: dir,
		RF:        1,
	}
}

func TestConfigValidation(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	base := validConfig(net, dir)

	mutations := map[string]func(Config) Config{
		"missing id":        func(c Config) Config { c.ID = ""; return c },
		"missing addr":      func(c Config) Config { c.Addr = ""; return c },
		"missing transport": func(c Config) Config { c.Transport = nil; return c },
		"missing registry":  func(c Config) Config { c.Registry = nil; return c },
		"missing directory": func(c Config) Config { c.Directory = nil; return c },
		"rf zero":           func(c Config) Config { c.RF = 0; return c },
	}
	for name, mutate := range mutations {
		if _, err := Start(mutate(base)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func startNode(t *testing.T, cfg Config) *Node {
	t.Helper()
	n, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Crash() })
	return n
}

func TestIDAndAddr(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	n := startNode(t, validConfig(net, dir))
	if n.ID() != "n1" || n.Addr() != "n1" {
		t.Fatalf("identity = %s/%s", n.ID(), n.Addr())
	}
}

// dial opens a raw RPC connection to a node.
func dial(t *testing.T, net rpc.Transport, addr string) *rpc.Client {
	t.Helper()
	conn, err := net.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c := rpc.NewClient(conn)
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestUnknownRPCKind(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	startNode(t, validConfig(net, dir))
	c := dial(t, net, "n1")
	if _, err := c.Call(context.Background(), 200, nil); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestPing(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	startNode(t, validConfig(net, dir))
	c := dial(t, net, "n1")
	out, err := c.Call(context.Background(), KindPing, nil)
	if err != nil || string(out) != "pong" {
		t.Fatalf("ping = %q, %v", out, err)
	}
}

func TestInvokeGarbagePayload(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	startNode(t, validConfig(net, dir))
	c := dial(t, net, "n1")
	if _, err := c.Call(context.Background(), KindInvoke, []byte("garbage")); err == nil {
		t.Fatal("garbage invocation accepted")
	}
}

func TestTransferGarbagePayload(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	startNode(t, validConfig(net, dir))
	c := dial(t, net, "n1")
	if _, err := c.Call(context.Background(), KindTransfer, []byte{1, 2, 3}); err == nil {
		t.Fatal("garbage transfer accepted")
	}
}

func TestInvokeWrongNodeForeignKey(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	startNode(t, validConfig(net, dir))
	cfg2 := validConfig(net, dir)
	cfg2.ID, cfg2.Addr = "n2", "n2"
	startNode(t, cfg2)

	// Find a key owned by n2, send its invocation to n1.
	view := dir.View()
	r := view.Ring()
	var foreign string
	for i := 0; i < 1000; i++ {
		key := core.Ref{Type: objects.TypeAtomicLong, Key: string(rune('a' + i%26))}.String()
		if owner, _ := r.Owner(key); owner == "n2" {
			foreign = string(rune('a' + i%26))
			break
		}
	}
	if foreign == "" {
		t.Skip("no key maps to n2")
	}
	payload, err := core.EncodeInvocation(core.Invocation{
		Ref:    core.Ref{Type: objects.TypeAtomicLong, Key: foreign},
		Method: "Get",
	})
	if err != nil {
		t.Fatal(err)
	}
	c := dial(t, net, "n1")
	raw, err := c.Call(context.Background(), KindInvoke, payload)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := core.DecodeResponse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(core.DecodeError(resp.Err), core.ErrWrongNode) {
		t.Fatalf("want ErrWrongNode, got %q", resp.Err)
	}
}

func TestStatsTransfersAndInvocations(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	n1 := startNode(t, validConfig(net, dir))

	// Create state, then add a node: transfers must be counted somewhere.
	payload, _ := core.EncodeInvocation(core.Invocation{
		Ref:    core.Ref{Type: objects.TypeAtomicLong, Key: "s"},
		Method: "Set",
		Args:   []any{int64(1)},
	})
	c := dial(t, net, "n1")
	if _, err := c.Call(context.Background(), KindInvoke, payload); err != nil {
		t.Fatal(err)
	}
	if n1.Stats().Invocations == 0 {
		t.Fatal("invocations not counted")
	}
}

func TestCrashIdempotent(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	n, err := Start(validConfig(net, dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := n.Crash(); err != nil {
		t.Fatal("second Crash errored")
	}
	if err := n.Close(); err != nil {
		t.Fatal("Close after Crash errored")
	}
}

func TestClosedNodeRejectsRequests(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	n, err := Start(validConfig(net, dir))
	if err != nil {
		t.Fatal(err)
	}
	c := dial(t, net, "n1")
	if _, err := c.Call(context.Background(), KindPing, nil); err != nil {
		t.Fatal(err)
	}
	_ = n.Crash()
	if _, err := c.Call(context.Background(), KindPing, nil); err == nil {
		t.Fatal("crashed node answered")
	}
}

func TestServiceGateLimitsThroughput(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	cfg := validConfig(net, dir)
	cfg.ServiceTime = 20 * time.Millisecond
	cfg.ServiceConcurrency = 1
	startNode(t, cfg)

	c := dial(t, net, "n1")
	payload, _ := core.EncodeInvocation(core.Invocation{
		Ref:    core.Ref{Type: objects.TypeAtomicLong, Key: "g"},
		Method: "IncrementAndGet",
	})
	start := time.Now()
	const ops = 4
	done := make(chan error, ops)
	for i := 0; i < ops; i++ {
		go func() {
			_, err := c.Call(context.Background(), KindInvoke, payload)
			done <- err
		}()
	}
	for i := 0; i < ops; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(start); d < ops*20*time.Millisecond {
		t.Fatalf("4 ops with a 20ms x1 gate finished in %v, want >= 80ms", d)
	}
}

func TestDebugHelpers(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	n := startNode(t, validConfig(net, dir))
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "dbg"}
	if n.DebugHasObject(ref) || n.DebugObjectCount() != 0 {
		t.Fatal("fresh node has objects")
	}
	payload, _ := core.EncodeInvocation(core.Invocation{Ref: ref, Method: "Get"})
	c := dial(t, net, "n1")
	if _, err := c.Call(context.Background(), KindInvoke, payload); err != nil {
		t.Fatal(err)
	}
	if !n.DebugHasObject(ref) || n.DebugObjectCount() != 1 {
		t.Fatal("object not materialized")
	}
}

// Regression: a context cancelled while an invocation is parked in
// Ctl.Wait must unblock promptly. Before the cancellation watcher the
// waiter only re-checked its context after a Broadcast on the same
// object, so an abandoned barrier/future wait slept forever.
func TestWaitUnblocksOnContextCancel(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	n := startNode(t, validConfig(net, dir))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inv := core.Invocation{
		Ref:    core.Ref{Type: objects.TypeCyclicBarrier, Key: "stuck"},
		Method: "Await",
		Init:   []any{int64(2)}, // two parties, only one ever arrives
	}
	done := make(chan error, 1)
	go func() {
		_, err := n.invokeLocal(ctx, inv)
		done <- err
	}()
	// Let the invocation park inside Wait, then abandon it. No other
	// invocation ever touches the object, so no Broadcast will occur.
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Wait did not unblock on context cancellation")
	}
}

// Regression: a state transfer carrying a snapshot older than the local
// copy must be refused. Without the version check, a snapshot taken before
// an operation but installed after it rolled the object back, losing an
// acknowledged update (found by the chaos nemesis, seed 505).
func TestStaleTransferRefused(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	n := startNode(t, validConfig(net, dir))
	ctx := context.Background()

	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "xfer"}
	set := func(v int64) {
		t.Helper()
		if _, err := n.invokeLocal(ctx, core.Invocation{Ref: ref, Method: "Set", Args: []any{v}}); err != nil {
			t.Fatal(err)
		}
	}
	get := func() int64 {
		t.Helper()
		res, err := n.invokeLocal(ctx, core.Invocation{Ref: ref, Method: "Get"})
		if err != nil {
			t.Fatal(err)
		}
		v, _ := core.NumberAsInt64(res[0])
		return v
	}

	set(10) // version 1
	e, ok := n.lookupExisting(ref)
	if !ok {
		t.Fatal("object not resident")
	}
	stale, err := n.snapshotEntry(ref, e)
	if err != nil {
		t.Fatal(err)
	}
	set(20) // version 2: the snapshot is now stale

	if err := n.installTransfer(stale); err != nil {
		t.Fatal(err)
	}
	if v := get(); v != 20 {
		t.Fatalf("stale transfer rolled the object back: got %d, want 20", v)
	}

	// A strictly newer snapshot must install.
	newer := stale
	newer.Version = 99
	if err := n.installTransfer(newer); err != nil {
		t.Fatal(err)
	}
	if v := get(); v != 10 {
		t.Fatalf("newer transfer not installed: got %d, want 10", v)
	}
}

// Regression: a committed SMR delivery for an object this replica holds no
// base copy of (the hand-off transfer has not arrived) must be skipped, not
// applied to a freshly created object — that would fork the object's
// lineage. Genesis-flagged ops (first-ever op, coordinator held no copy
// and neither did its peers) still create.
func TestDeliverWithoutBaseCopySkips(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	n := startNode(t, validConfig(net, dir))

	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "nobase"}
	encInv, err := core.EncodeInvocation(core.Invocation{
		Ref: ref, Method: "IncrementAndGet", Persist: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Non-genesis op, no local copy: must skip and report a retryable error
	// to the (local) waiter.
	id := totalorder.MsgID{Origin: "n1", Seq: 1}
	ch := make(chan smrResult, 1)
	n.waitMu.Lock()
	n.waiters[id] = ch
	n.waitMu.Unlock()
	n.deliverSMR(id, append([]byte{smrOpExisting}, encInv...))
	select {
	case res := <-ch:
		if !errors.Is(res.err, core.ErrRebalancing) {
			t.Fatalf("skipped delivery returned %v, want ErrRebalancing", res.err)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter never completed")
	}
	if n.DebugHasObject(ref) {
		t.Fatal("non-genesis delivery created a fresh object")
	}

	// Genesis op: creates and applies.
	n.deliverSMR(totalorder.MsgID{Origin: "n1", Seq: 2}, append([]byte{smrOpGenesis}, encInv...))
	if !n.DebugHasObject(ref) {
		t.Fatal("genesis delivery did not create the object")
	}
}

// Regression: a propose from a coordinator whose membership view differs
// from the receiver's must be fenced. Without the fence, a stale primary
// and the new primary could both commit operations for one object during a
// view transition, forking its lineage (two clients acknowledged the same
// counter value).
func TestProposeFencedOnViewMismatch(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	startNode(t, validConfig(net, dir))
	c := dial(t, net, "n1")
	ctx := context.Background()

	encInv, err := core.EncodeInvocation(core.Invocation{
		Ref: core.Ref{Type: objects.TypeAtomicLong, Key: "fenced"},
	})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(fence uint64, seq uint64) []byte {
		return core.AppendPropose(nil, core.ProposeMsg{
			ID:      totalorder.MsgID{Origin: "n9", Seq: seq},
			Payload: append([]byte{smrOpGenesis}, encInv...),
			Fence:   fence,
		})
	}

	if _, err := c.Call(ctx, KindPropose, mk(dir.View().Fence()+1, 1)); err == nil {
		t.Fatal("propose with mismatched view fence accepted")
	}
	if _, err := c.Call(ctx, KindPropose, mk(dir.View().Fence(), 2)); err != nil {
		t.Fatalf("propose with matching fence refused: %v", err)
	}
}

// An error answered by a peer's handler must leave the shared peer
// connection up: a fenced propose on n1's connection to n2 must not fail a
// barrier wait that is blocked on the same connection.
func TestPeerCallRemoteErrorKeepsConnection(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	n1 := startNode(t, validConfig(net, dir))
	cfg2 := validConfig(net, dir)
	cfg2.ID, cfg2.Addr = "n2", "n2"
	startNode(t, cfg2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	var ref core.Ref
	for i := 0; ; i++ {
		ref = core.Ref{Type: objects.TypeCyclicBarrier, Key: fmt.Sprintf("b%d", i)}
		if dir.View().Place(ref.String(), 1)[0] == "n2" {
			break
		}
	}
	invoke := func(method string) []byte {
		body, err := core.EncodeInvocation(core.Invocation{Ref: ref, Method: method, Init: []any{int64(2)}})
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	results := func(out []byte, err error) ([]any, error) {
		if err != nil {
			return nil, err
		}
		resp, err := core.DecodeResponse(out)
		if err != nil {
			return nil, err
		}
		return resp.Results, core.DecodeError(resp.Err)
	}

	blocked := make(chan error, 1)
	go func() {
		_, err := results(n1.peerCall(ctx, "n2", KindInvoke, invoke("Await")))
		blocked <- err
	}()
	direct := dial(t, net, "n2")
	for {
		res, err := results(direct.Call(ctx, KindInvoke, invoke("GetNumberWaiting")))
		if err != nil {
			t.Fatal(err)
		}
		if res[0].(int64) == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	fenced := core.AppendPropose(nil, core.ProposeMsg{
		ID:      totalorder.MsgID{Origin: "n1", Seq: 1},
		Payload: []byte{smrOpGenesis},
		Fence:   dir.View().Fence() + 1,
	})
	_, err := n1.peerCall(ctx, "n2", KindPropose, fenced)
	if !errors.Is(err, rpc.ErrRemote) || !errors.Is(core.DecodeError(err.Error()), core.ErrRebalancing) {
		t.Fatalf("fenced propose: err = %v, want a remote ErrRebalancing", err)
	}

	if _, err := results(direct.Call(ctx, KindInvoke, invoke("Await"))); err != nil {
		t.Fatal(err)
	}
	if err := <-blocked; err != nil {
		t.Fatalf("call sharing the connection failed after a remote error: %v", err)
	}
}

// pullObject adopts an existing copy from a group peer instead of treating
// a local miss as object creation.
func TestPullOnMissAdoptsPeerCopy(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	n1 := startNode(t, validConfig(net, dir))
	cfg2 := validConfig(net, dir)
	cfg2.ID, cfg2.Addr = "n2", "n2"
	n2 := startNode(t, cfg2)
	ctx := context.Background()

	// Seed a copy on n1 directly (bypassing routing: this is the replica
	// layer, not the client layer).
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "adopt"}
	if _, err := n1.lookupOrCreate(core.Invocation{Ref: ref}); err != nil {
		t.Fatal(err)
	}
	e, _ := n1.lookupExisting(ref)
	e.mu.Lock()
	e.version = 7
	e.persist = true
	e.mu.Unlock()

	if installed, _ := n2.pullObject(ctx, ref, []ring.NodeID{"n1", "n2"}); !installed {
		t.Fatal("pull found no copy")
	}
	got, ok := n2.lookupExisting(ref)
	if !ok {
		t.Fatal("pulled object not resident on n2")
	}
	got.mu.Lock()
	v := got.version
	got.mu.Unlock()
	if v != 7 {
		t.Fatalf("pulled copy version = %d, want 7", v)
	}
}

// A round whose replica group was computed before a view change must not
// be multicast to the old group: checkGroupCurrent bounces it once the
// group moved, and passes it while the group holds.
func TestCheckGroupCurrentBouncesMovedGroup(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	cfg := validConfig(net, dir)
	cfg.RF = 2
	n1 := startNode(t, cfg)
	cfg2 := cfg
	cfg2.ID, cfg2.Addr = "n2", "n2"
	startNode(t, cfg2)

	refs := make([]core.Ref, 64)
	before := make([][]ring.NodeID, len(refs))
	for i := range refs {
		refs[i] = core.Ref{Type: objects.TypeAtomicLong, Key: fmt.Sprintf("g%d", i)}
		before[i], _ = n1.replicaGroup(refs[i], true)
		if err := n1.checkGroupCurrent(refs[i], before[i]); err != nil {
			t.Fatalf("unchanged group bounced: %v", err)
		}
	}
	cfg3 := cfg
	cfg3.ID, cfg3.Addr = "n3", "n3"
	startNode(t, cfg3)
	moved := 0
	for i, ref := range refs {
		now, _ := n1.replicaGroup(ref, true)
		err := n1.checkGroupCurrent(ref, before[i])
		switch {
		case !slices.Equal(now, before[i]):
			moved++
			if !errors.Is(err, core.ErrRebalancing) {
				t.Fatalf("%s: group moved %v -> %v: err = %v, want ErrRebalancing", ref, before[i], now, err)
			}
		case err != nil:
			t.Fatalf("%s: group kept across the view change bounced: %v", ref, err)
		}
	}
	if moved == 0 || moved == len(refs) {
		t.Fatalf("%d of %d groups moved; the test needs both kinds", moved, len(refs))
	}
}

// The in-flight tracker admits only one coordinator per object at a time:
// during a view transition the old and the new primary must not both have
// undelivered proposals for the same object (each would ack a result the
// other never sees).
func TestInflightSingleCoordinatorPerObject(t *testing.T) {
	tr := newInflightTracker(time.Minute)
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "one"}
	other := core.Ref{Type: objects.TypeAtomicLong, Key: "two"}

	a1 := totalorder.MsgID{Origin: "a", Seq: 1}
	if !tr.admit(a1, ref) {
		t.Fatal("first propose refused")
	}
	if !tr.admit(a1, ref) {
		t.Fatal("duplicate propose (same ID) refused")
	}
	if !tr.admit(totalorder.MsgID{Origin: "a", Seq: 2}, ref) {
		t.Fatal("second propose from the same coordinator refused")
	}
	if tr.admit(totalorder.MsgID{Origin: "b", Seq: 1}, ref) {
		t.Fatal("propose from a second coordinator admitted while the first is in flight")
	}
	if !tr.admit(totalorder.MsgID{Origin: "b", Seq: 2}, other) {
		t.Fatal("unrelated object blocked by another object's in-flight op")
	}
	if !tr.busy(ref) {
		t.Fatal("object with undelivered proposals not busy")
	}

	// Delivery settles both of a's proposals; b may now coordinate.
	tr.settle(a1)
	tr.settle(totalorder.MsgID{Origin: "a", Seq: 2})
	if tr.busy(ref) {
		t.Fatal("object busy after all proposals settled")
	}
	if !tr.admit(totalorder.MsgID{Origin: "b", Seq: 3}, ref) {
		t.Fatal("propose refused after the conflicting ops settled")
	}

	// A view change purges proposals from dead coordinators.
	tr.purge(func(origin string) bool { return origin != "b" })
	if tr.busy(ref) {
		t.Fatal("dead coordinator's proposals survived the purge")
	}
}

// Regression: a mutating op coordinated by another node must revoke the
// leases *this* node granted before its delivery completes — the delivery's
// return is what the coordinator's FINAL reply, and with it the client ack,
// waits on. Around a view change the grantor (primary per the directory's
// latest view) and the coordinator (deposed primary, old view installed,
// write fence unarmed) can be different nodes; without member-side
// revocation the grantor's client caches would serve pre-write state for a
// full TTL after the write was acknowledged.
func TestDeliverRevokesMemberLeases(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	cfg := validConfig(net, dir)
	cfg.LeaseTTL = time.Second
	n := startNode(t, cfg)

	// A listener standing in for a client cache's invalidation endpoint.
	invalidated := make(chan struct{}, 4)
	l, err := net.Listen("sink")
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer(func(_ context.Context, kind uint8, _ []byte) ([]byte, error) {
		if kind == KindCacheInvalidate {
			invalidated <- struct{}{}
		}
		return nil, nil
	})
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() { _ = srv.Close() })

	// Materialize the object, then hand a lease to the sink — this node is
	// the primary in the directory's latest view, so the grant succeeds.
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "member-lease"}
	if _, err := n.invokeLocal(context.Background(), core.Invocation{
		Ref: ref, Method: "Set", Args: []any{int64(1)},
	}); err != nil {
		t.Fatal(err)
	}
	if resp := n.leases.grant(core.LeaseRequest{Ref: ref, HolderAddr: "sink"}); !resp.Granted {
		t.Fatalf("grant refused: %s", resp.Reason)
	}

	// Deliver a write coordinated elsewhere (origin n9, as a deposed primary
	// still on its old view would): the lease must be dead by the time
	// deliverSMR returns.
	encInv, err := core.EncodeInvocation(core.Invocation{
		Ref: ref, Method: "Set", Args: []any{int64(2)}, Persist: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !n.deliverSMR(totalorder.MsgID{Origin: "n9", Seq: 1}, append([]byte{smrOpExisting}, encInv...)) {
		t.Fatal("delivery not applied")
	}
	select {
	case <-invalidated:
	default:
		t.Fatal("member-side delivery did not revoke the lease this node granted")
	}
	n.leases.mu.Lock()
	holders := 0
	if rl := n.leases.refs[ref]; rl != nil {
		holders = len(rl.holders)
	}
	n.leases.mu.Unlock()
	if holders != 0 {
		t.Fatalf("%d lease holders survived a foreign-coordinated write", holders)
	}
}

// A fetch for an object with undelivered proposals answers Busy: a snapshot
// taken now would miss those ops, and the puller must neither adopt it nor
// conclude the object does not exist.
func TestFetchBusyWhileOpsInFlight(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	n1 := startNode(t, validConfig(net, dir))
	cfg2 := validConfig(net, dir)
	cfg2.ID, cfg2.Addr = "n2", "n2"
	n2 := startNode(t, cfg2)
	ctx := context.Background()

	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "busy"}
	if _, err := n1.lookupOrCreate(core.Invocation{Ref: ref}); err != nil {
		t.Fatal(err)
	}
	n1.inflight.admit(totalorder.MsgID{Origin: "n9", Seq: 1}, ref)

	installed, busy := n2.pullObject(ctx, ref, []ring.NodeID{"n1", "n2"})
	if installed {
		t.Fatal("pull adopted a snapshot with ops still in flight")
	}
	if !busy {
		t.Fatal("pull did not report the peer's copy as busy")
	}

	n1.inflight.settle(totalorder.MsgID{Origin: "n9", Seq: 1})
	installed, busy = n2.pullObject(ctx, ref, []ring.NodeID{"n1", "n2"})
	if !installed || busy {
		t.Fatalf("pull after settle: installed=%v busy=%v, want true/false", installed, busy)
	}
}
