package crucial

import (
	"context"

	"crucial/internal/objects"
)

// Synchronization objects (Table 1): shared objects whose methods block
// server side, giving cloud threads the coordination surface of
// java.util.concurrent without any polling. They are ephemeral and never
// replicated.

// CyclicBarrier blocks parties cloud threads until all have arrived, then
// releases them together and resets for the next generation — the
// iteration synchronizer of the paper's k-means (Listing 2, line 19).
type CyclicBarrier struct {
	H Handle // H is the underlying object handle (ref + client binding).
}

// NewCyclicBarrier builds a proxy for a barrier of the given party count
// (applied on first access).
func NewCyclicBarrier(key string, parties int, opts ...Option) *CyclicBarrier {
	opts = append(opts, withInit(int64(parties)))
	return &CyclicBarrier{H: NewHandle(objects.TypeCyclicBarrier, key, opts...)}
}

// Await blocks until all parties arrive, returning this caller's arrival
// index (parties-1 for the first arrival, 0 for the last, like Java).
func (b *CyclicBarrier) Await(ctx context.Context) (int64, error) {
	return result0[int64](b.H.Invoke(ctx, "Await"))
}

// GetParties returns the configured party count.
func (b *CyclicBarrier) GetParties(ctx context.Context) (int64, error) {
	return result0[int64](b.H.Invoke(ctx, "GetParties"))
}

// GetNumberWaiting returns how many threads are currently blocked.
func (b *CyclicBarrier) GetNumberWaiting(ctx context.Context) (int64, error) {
	return result0[int64](b.H.Invoke(ctx, "GetNumberWaiting"))
}

// Reset breaks the current generation (its waiters receive a
// barrier-broken error) and starts a fresh one at once, like
// java.util.concurrent.CyclicBarrier.reset.
func (b *CyclicBarrier) Reset(ctx context.Context) error {
	return resultVoid(b.H.Invoke(ctx, "Reset"))
}

// Semaphore is a distributed counting semaphore.
type Semaphore struct {
	H Handle // H is the underlying object handle (ref + client binding).
}

// NewSemaphore builds a proxy for a semaphore with the given initial
// permit count (applied on first access).
func NewSemaphore(key string, permits int, opts ...Option) *Semaphore {
	opts = append(opts, withInit(int64(permits)))
	return &Semaphore{H: NewHandle(objects.TypeSemaphore, key, opts...)}
}

// Acquire blocks until one permit is available and takes it.
func (s *Semaphore) Acquire(ctx context.Context) error {
	return resultVoid(s.H.Invoke(ctx, "Acquire"))
}

// AcquireN blocks until n permits are available and takes them.
func (s *Semaphore) AcquireN(ctx context.Context, n int) error {
	return resultVoid(s.H.Invoke(ctx, "Acquire", int64(n)))
}

// TryAcquire takes a permit without blocking, reporting success.
func (s *Semaphore) TryAcquire(ctx context.Context) (bool, error) {
	return result0[bool](s.H.Invoke(ctx, "TryAcquire"))
}

// Release returns one permit.
func (s *Semaphore) Release(ctx context.Context) error {
	return resultVoid(s.H.Invoke(ctx, "Release"))
}

// ReleaseN returns n permits.
func (s *Semaphore) ReleaseN(ctx context.Context, n int) error {
	return resultVoid(s.H.Invoke(ctx, "Release", int64(n)))
}

// AvailablePermits returns the free permit count.
func (s *Semaphore) AvailablePermits(ctx context.Context) (int64, error) {
	return result0[int64](s.H.Invoke(ctx, "AvailablePermits"))
}

// DrainPermits takes every available permit, returning how many.
func (s *Semaphore) DrainPermits(ctx context.Context) (int64, error) {
	return result0[int64](s.H.Invoke(ctx, "DrainPermits"))
}

// Future is a single-assignment distributed cell: Get blocks until some
// thread Sets it. The Fig. 6 map-phase synchronization is built on these.
type Future[T any] struct {
	H Handle // H is the underlying object handle (ref + client binding).
}

// NewFuture builds a proxy for the future named key.
func NewFuture[T any](key string, opts ...Option) *Future[T] {
	return &Future[T]{H: NewHandle(objects.TypeFuture, key, opts...)}
}

// Set completes the future with v. Completing twice is an error.
func (f *Future[T]) Set(ctx context.Context, v T) error {
	return resultVoid(f.H.Invoke(ctx, "Set", v))
}

// Fail completes the future exceptionally; Get returns the message as an
// error.
func (f *Future[T]) Fail(ctx context.Context, msg string) error {
	return resultVoid(f.H.Invoke(ctx, "Fail", msg))
}

// Get blocks until the future completes and returns its value.
func (f *Future[T]) Get(ctx context.Context) (T, error) {
	return result0[T](f.H.Invoke(ctx, "Get"))
}

// IsDone reports completion without blocking.
func (f *Future[T]) IsDone(ctx context.Context) (bool, error) {
	return result0[bool](f.H.Invoke(ctx, "IsDone"))
}

// GetNow returns the value if the future completed successfully.
func (f *Future[T]) GetNow(ctx context.Context) (T, bool, error) {
	var zero T
	res, err := f.H.Invoke(ctx, "GetNow")
	if err != nil {
		return zero, false, err
	}
	if !res[1].(bool) {
		return zero, false, nil
	}
	v, ok := res[0].(T)
	if !ok {
		return zero, false, typeError[T](res[0])
	}
	return v, true, nil
}

// CountDownLatch blocks waiters until count threads have counted down.
type CountDownLatch struct {
	H Handle // H is the underlying object handle (ref + client binding).
}

// NewCountDownLatch builds a proxy for a latch with the given count
// (applied on first access).
func NewCountDownLatch(key string, count int, opts ...Option) *CountDownLatch {
	opts = append(opts, withInit(int64(count)))
	return &CountDownLatch{H: NewHandle(objects.TypeCountDownLatch, key, opts...)}
}

// CountDown decrements the latch, returning the remaining count.
func (l *CountDownLatch) CountDown(ctx context.Context) (int64, error) {
	return result0[int64](l.H.Invoke(ctx, "CountDown"))
}

// Await blocks until the latch reaches zero.
func (l *CountDownLatch) Await(ctx context.Context) error {
	return resultVoid(l.H.Invoke(ctx, "Await"))
}

// GetCount returns the remaining count.
func (l *CountDownLatch) GetCount(ctx context.Context) (int64, error) {
	return result0[int64](l.H.Invoke(ctx, "GetCount"))
}
