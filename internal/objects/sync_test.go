package objects

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crucial/internal/core"
)

func TestCyclicBarrierInitValidation(t *testing.T) {
	if _, err := NewCyclicBarrier([]any{int64(0)}); err == nil {
		t.Fatal("parties=0 accepted")
	}
	if _, err := NewCyclicBarrier(nil); err == nil {
		t.Fatal("missing parties accepted")
	}
}

func TestCyclicBarrierTripsWhenFull(t *testing.T) {
	m := newTestMonitor()
	b := mustNew(t, NewCyclicBarrier, int64(3))

	var passed atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := m.Call(b, "Await"); err != nil {
				t.Errorf("Await: %v", err)
				return
			}
			passed.Add(1)
		}()
	}
	wg.Wait()
	if passed.Load() != 3 {
		t.Fatalf("%d parties passed, want 3", passed.Load())
	}
}

func TestCyclicBarrierBlocksUntilFull(t *testing.T) {
	m := newTestMonitor()
	b := mustNew(t, NewCyclicBarrier, int64(2))

	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = m.Call(b, "Await")
	}()
	select {
	case <-done:
		t.Fatal("Await returned before the barrier was full")
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := m.Call(b, "Await"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("first waiter not released")
	}
}

func TestCyclicBarrierGenerations(t *testing.T) {
	m := newTestMonitor()
	b := mustNew(t, NewCyclicBarrier, int64(4))

	const generations = 5
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := 0; g < generations; g++ {
				if _, err := m.Call(b, "Await"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := call[int64](t, m, b, "GetNumberWaiting"); got != 0 {
		t.Fatalf("waiters left after final generation: %d", got)
	}
}

func TestCyclicBarrierArrivalIndex(t *testing.T) {
	m := newTestMonitor()
	b := mustNew(t, NewCyclicBarrier, int64(2))
	indices := make(chan int64, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := m.Call(b, "Await")
			if err != nil {
				t.Errorf("Await: %v", err)
				return
			}
			indices <- res[0].(int64)
		}()
	}
	wg.Wait()
	close(indices)
	seen := map[int64]bool{}
	for i := range indices {
		seen[i] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("arrival indices = %v, want {0,1}", seen)
	}
}

func TestCyclicBarrierGetParties(t *testing.T) {
	m := newTestMonitor()
	b := mustNew(t, NewCyclicBarrier, int64(7))
	if got := call[int64](t, m, b, "GetParties"); got != 7 {
		t.Fatalf("GetParties = %d", got)
	}
}

// Reset with one party waiting returns at once, that party fails with
// ErrBarrierBroken, and the next full generation trips.
func TestCyclicBarrierResetBreaksWaiters(t *testing.T) {
	m := newTestMonitor()
	b := mustNew(t, NewCyclicBarrier, int64(2))

	waiter := make(chan error, 1)
	go func() {
		_, err := m.Call(b, "Await")
		waiter <- err
	}()
	waitWaiting(t, m, b, 1)
	reset := make(chan error, 1)
	go func() {
		_, err := m.Call(b, "Reset")
		reset <- err
	}()
	select {
	case err := <-reset:
		if err != nil {
			t.Fatalf("Reset: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Reset hung with a party waiting")
	}
	select {
	case err := <-waiter:
		if !errors.Is(err, ErrBarrierBroken) {
			t.Fatalf("waiter of the reset generation got %v, want ErrBarrierBroken", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter not released by Reset")
	}
	if got := call[int64](t, m, b, "GetNumberWaiting"); got != 0 {
		t.Fatalf("GetNumberWaiting after Reset = %d, want 0", got)
	}
	awaitAll(t, m, b, 2)
}

// A waiter whose context ends withdraws its arrival: it does not count
// toward the next trip.
func TestCyclicBarrierCancelledWaiterWithdraws(t *testing.T) {
	m := newTestMonitor()
	b := mustNew(t, NewCyclicBarrier, int64(2))

	ctx, cancel := context.WithCancel(context.Background())
	waiter := make(chan error, 1)
	go func() {
		_, err := m.CallCtx(ctx, b, "Await")
		waiter <- err
	}()
	waitWaiting(t, m, b, 1)
	cancel()
	// The server's monitor wakes waiters when their context ends; the test
	// monitor needs an explicit broadcast.
	m.mu.Lock()
	m.cond.Broadcast()
	m.mu.Unlock()
	if err := <-waiter; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter got %v", err)
	}
	if got := call[int64](t, m, b, "GetNumberWaiting"); got != 0 {
		t.Fatalf("GetNumberWaiting after withdrawal = %d, want 0", got)
	}
	awaitAll(t, m, b, 2)
}

// waitWaiting polls until n parties wait at the barrier.
func waitWaiting(t *testing.T, m *testMonitor, b core.Object, n int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for call[int64](t, m, b, "GetNumberWaiting") != n {
		if time.Now().After(deadline) {
			t.Fatalf("never saw %d parties waiting", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// awaitAll runs one full generation of parties and checks that it trips.
func awaitAll(t *testing.T, m *testMonitor, b core.Object, parties int) {
	t.Helper()
	errs := make(chan error, parties)
	for i := 0; i < parties; i++ {
		go func() {
			_, err := m.Call(b, "Await")
			errs <- err
		}()
	}
	for i := 0; i < parties; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatalf("Await in the next generation: %v", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("next generation never tripped")
		}
	}
}

func TestSemaphoreAcquireRelease(t *testing.T) {
	m := newTestMonitor()
	s := mustNew(t, NewSemaphore, int64(2))
	if _, err := m.Call(s, "Acquire"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Call(s, "Acquire"); err != nil {
		t.Fatal(err)
	}
	if got := call[int64](t, m, s, "AvailablePermits"); got != 0 {
		t.Fatalf("permits = %d", got)
	}
	if ok := call[bool](t, m, s, "TryAcquire"); ok {
		t.Fatal("TryAcquire succeeded with zero permits")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = m.Call(s, "Acquire")
	}()
	select {
	case <-done:
		t.Fatal("Acquire returned without permits")
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := m.Call(s, "Release"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Release did not wake the waiter")
	}
}

func TestSemaphoreMultiPermit(t *testing.T) {
	m := newTestMonitor()
	s := mustNew(t, NewSemaphore, int64(5))
	if _, err := m.Call(s, "Acquire", int64(3)); err != nil {
		t.Fatal(err)
	}
	if got := call[int64](t, m, s, "AvailablePermits"); got != 2 {
		t.Fatalf("permits = %d", got)
	}
	if got := call[int64](t, m, s, "DrainPermits"); got != 2 {
		t.Fatalf("drained = %d", got)
	}
	if _, err := m.Call(s, "Release", int64(4)); err != nil {
		t.Fatal(err)
	}
	if got := call[int64](t, m, s, "AvailablePermits"); got != 4 {
		t.Fatalf("permits after release = %d", got)
	}
}

func TestSemaphoreMutualExclusion(t *testing.T) {
	m := newTestMonitor()
	s := mustNew(t, NewSemaphore, int64(1))
	var inCritical atomic.Int32
	var violations atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if _, err := m.Call(s, "Acquire"); err != nil {
					t.Errorf("Acquire: %v", err)
					return
				}
				if inCritical.Add(1) != 1 {
					violations.Add(1)
				}
				inCritical.Add(-1)
				if _, err := m.Call(s, "Release"); err != nil {
					t.Errorf("Release: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if violations.Load() != 0 {
		t.Fatalf("%d mutual exclusion violations", violations.Load())
	}
}

func TestSemaphoreRejectsBadArgs(t *testing.T) {
	m := newTestMonitor()
	s := mustNew(t, NewSemaphore, int64(1))
	if _, err := m.Call(s, "Acquire", int64(-1)); err == nil {
		t.Fatal("negative permits accepted")
	}
	if _, err := NewSemaphore([]any{int64(-1)}); err == nil {
		t.Fatal("negative initial permits accepted")
	}
}

func TestFutureSetThenGet(t *testing.T) {
	m := newTestMonitor()
	f := mustNew(t, NewFuture)
	if got := call[bool](t, m, f, "IsDone"); got {
		t.Fatal("fresh future done")
	}
	if _, err := m.Call(f, "Set", int64(99)); err != nil {
		t.Fatal(err)
	}
	if got := call[int64](t, m, f, "Get"); got != 99 {
		t.Fatalf("Get = %d", got)
	}
	if _, err := m.Call(f, "Set", int64(1)); !errors.Is(err, ErrFutureAlreadySet) {
		t.Fatalf("double Set: %v", err)
	}
}

func TestFutureGetBlocksUntilSet(t *testing.T) {
	m := newTestMonitor()
	f := mustNew(t, NewFuture)
	got := make(chan int64, 1)
	go func() {
		res, err := m.Call(f, "Get")
		if err != nil {
			t.Errorf("Get: %v", err)
			got <- -1
			return
		}
		got <- res[0].(int64)
	}()
	select {
	case <-got:
		t.Fatal("Get returned before Set")
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := m.Call(f, "Set", int64(7)); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		if v != 7 {
			t.Fatalf("Get = %d", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Get not released by Set")
	}
}

func TestFutureFail(t *testing.T) {
	m := newTestMonitor()
	f := mustNew(t, NewFuture)
	if _, err := m.Call(f, "Fail", "computation exploded"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Call(f, "Get"); err == nil || err.Error() != "computation exploded" {
		t.Fatalf("Get after Fail = %v", err)
	}
	res, err := m.Call(f, "GetNow")
	if err != nil {
		t.Fatal(err)
	}
	if res[1].(bool) {
		t.Fatal("GetNow reported success for failed future")
	}
}

func TestFutureGetNow(t *testing.T) {
	m := newTestMonitor()
	f := mustNew(t, NewFuture)
	res, err := m.Call(f, "GetNow")
	if err != nil {
		t.Fatal(err)
	}
	if res[1].(bool) {
		t.Fatal("GetNow on fresh future reported done")
	}
	_, _ = m.Call(f, "Set", "v")
	res, _ = m.Call(f, "GetNow")
	if !res[1].(bool) || res[0].(string) != "v" {
		t.Fatalf("GetNow = %v", res)
	}
}

func TestCountDownLatch(t *testing.T) {
	m := newTestMonitor()
	l := mustNew(t, NewCountDownLatch, int64(2))
	if got := call[int64](t, m, l, "GetCount"); got != 2 {
		t.Fatalf("GetCount = %d", got)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = m.Call(l, "Await")
	}()
	select {
	case <-done:
		t.Fatal("Await returned early")
	case <-time.After(50 * time.Millisecond):
	}
	_, _ = m.Call(l, "CountDown")
	_, _ = m.Call(l, "CountDown")
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Await not released at zero")
	}
	// Extra countdowns are no-ops.
	if got := call[int64](t, m, l, "CountDown"); got != 0 {
		t.Fatalf("count went negative: %d", got)
	}
}

func TestCountDownLatchZeroAwaitImmediate(t *testing.T) {
	m := newTestMonitor()
	l := mustNew(t, NewCountDownLatch, int64(0))
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = m.Call(l, "Await")
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Await on zero latch blocked")
	}
}

func TestSyncObjectsMarkedInRegistry(t *testing.T) {
	r := BuiltinRegistry()
	for _, name := range []string{TypeCyclicBarrier, TypeSemaphore, TypeFuture, TypeCountDownLatch} {
		info, err := r.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if !info.Synchronization {
			t.Fatalf("%s not marked as synchronization object", name)
		}
	}
	for _, name := range []string{TypeAtomicLong, TypeList, TypeMap, TypeKV} {
		info, err := r.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if info.Synchronization {
			t.Fatalf("%s wrongly marked as synchronization object", name)
		}
	}
}

func TestBuiltinRegistryComplete(t *testing.T) {
	r := BuiltinRegistry()
	want := []string{
		TypeAtomicInt, TypeAtomicLong, TypeAtomicBoolean, TypeAtomicReference,
		TypeAtomicByteArray, TypeAtomicDoubleArray, TypeDoubleAdder,
		TypeList, TypeMap, TypeKV,
		TypeCyclicBarrier, TypeSemaphore, TypeFuture, TypeCountDownLatch,
	}
	for _, name := range want {
		if _, err := r.Lookup(name); err != nil {
			t.Errorf("missing builtin %s: %v", name, err)
		}
	}
	// Every data object must be snapshotable (replication requirement).
	for _, name := range want {
		info, _ := r.Lookup(name)
		if info.Synchronization {
			continue
		}
		init := []any{}
		if name == TypeCyclicBarrier || name == TypeSemaphore || name == TypeCountDownLatch {
			init = []any{int64(1)}
		}
		obj, err := info.New(init)
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		if _, ok := obj.(core.Snapshotter); !ok {
			t.Errorf("data object %s does not implement Snapshotter", name)
		}
	}
}
