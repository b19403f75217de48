package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"crucial"
	"crucial/internal/faas"
)

// statefunInstances is how many function instances the sends spread over.
const statefunInstances = 1000

// statefunWarmup is how many messages are sent and handled before the
// measured batches: they boot the dispatch engine and warm the runner
// containers.
const statefunWarmup = 100

// statefunBatchWait bounds the wait for one batch to be handled.
const statefunBatchWait = 60 * time.Second

// drainCallers is how many concurrent drain Calls the audit issues; they
// share the runtime's one client connection.
const drainCallers = 16

// sfState is one counter instance's private state.
type sfState struct {
	N int64
}

// statefunPhase drives internal/statefun through crucial.StatefulFunction
// on a booted local runtime with default StatefunOptions (FaaS dispatch,
// 8 workers, 2 ms poll). Batches of Sends from jobThreads goroutines
// spread uniformly over statefunInstances counter instances; each batch
// is awaited until every message has been handled, and each message is
// stamped at its handler's first entry. A drain Call per instance then
// audits the counts.
type statefunPhase struct {
	e    env // a book of its own, the run's tracer
	fn   *crucial.StatefulFunction
	plat *faas.Platform
	inst []int32 // instance per message id, drawn from the seed

	sendNs   []int64 // time inside Send per message id
	returned []int64 // Send return, ns since the book's base

	acked, inDoubt []atomic.Int64 // per instance
	entries        atomic.Int64   // handler entries for "add" messages
	// Mailbox Status totals over the drained instances.
	dups, mailboxRejected atomic.Int64
}

// newStatefunPhase deploys the counter function on rt for a phase of at
// most msgs messages after the warm-up.
func newStatefunPhase(rt *crucial.Runtime, tr *tracer, seed int64, msgs int) (*statefunPhase, error) {
	n := statefunWarmup + msgs
	p := &statefunPhase{
		e:        env{book: newBook(n), tr: tr},
		plat:     rt.Platform(),
		inst:     make([]int32, n),
		sendNs:   make([]int64, n),
		returned: make([]int64, n),
		acked:    make([]atomic.Int64, statefunInstances),
		inDoubt:  make([]atomic.Int64, statefunInstances),
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range p.inst {
		p.inst[i] = int32(rng.Intn(statefunInstances))
	}
	var err error
	p.fn, err = rt.DeployStatefulFunction("counter", p.handle)
	return p, err
}

func instName(i int32) string { return fmt.Sprintf("c%04d", i) }

// handle is the counter function: "add" stamps the message's first
// handler entry and bumps the count, "get" replies with it.
func (p *statefunPhase) handle(c *crucial.FnCtx, m crucial.FnMsg) error {
	var st sfState
	if _, err := c.State(&st); err != nil {
		return err
	}
	switch m.Name() {
	case "add":
		var id int64
		if err := m.Body(&id); err != nil {
			return err
		}
		spanID, start := p.e.tr.begin()
		p.e.book.stamp(id)
		p.entries.Add(1)
		st.N++
		err := c.SetState(&st)
		p.e.tr.end(spanID, 0, id, "statefun.handler", start)
		return err
	case "get":
		return c.Reply(st.N)
	}
	return fmt.Errorf("counter: unknown message %q", m.Name())
}

// send delivers message id to its instance and books its return.
func (p *statefunPhase) send(ctx context.Context, id int64) error {
	i := p.inst[id]
	p.e.book.due[id] = p.e.book.now()
	spanID, start := p.e.tr.begin()
	t0 := time.Now()
	err := p.fn.Send(ctx, instName(i), "add", id)
	p.sendNs[id] = int64(time.Since(t0))
	p.returned[id] = p.e.book.now()
	p.e.tr.end(spanID, 0, id, "statefun.send", start)
	switch {
	case err == nil:
		p.acked[i].Add(1)
	case errors.Is(err, crucial.ErrMailboxFull):
		// Bounced by backpressure: not enqueued, so not in doubt.
	default:
		p.inDoubt[i].Add(1)
	}
	p.e.book.finish(id, err, false)
	return err
}

// batch sends n messages from first, split over jobThreads senders that
// each send closed loop, and waits until every message whose Send did not
// fail has been handled.
func (p *statefunPhase) batch(ctx context.Context, first int64, n int) error {
	var wg sync.WaitGroup
	per := (n + jobThreads - 1) / jobThreads
	for t := 0; t < jobThreads; t++ {
		lo, hi := first+int64(t*per), min(first+int64((t+1)*per), first+int64(n))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := lo; id < hi; id++ {
				_ = p.send(ctx, id) // a failed Send is booked as failed
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(statefunBatchWait)
	for {
		left := p.e.book.count(first, n, stSent) + p.e.book.count(first, n, stPending)
		if left == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("statefun: %d messages not handled within %v", left, statefunBatchWait)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// run sends the warm-up, then batches of jobThreads×perThread messages,
// audits every instance, and returns the layer's metrics over the
// batches.
func (p *statefunPhase) run(ctx context.Context, perThread, batches int) (map[string]float64, error) {
	b := p.e.book
	if err := p.batch(ctx, b.reserve(statefunWarmup), statefunWarmup); err != nil {
		return nil, fmt.Errorf("statefun warm-up: %w", err)
	}
	from := b.next.Load()
	invocations, entries := p.plat.Stats().Invocations, p.entries.Load()
	for k := 0; k < batches; k++ {
		n := jobThreads * perThread
		if err := p.batch(ctx, b.reserve(n), n); err != nil {
			return nil, err
		}
	}
	invocations, entries = p.plat.Stats().Invocations-invocations, p.entries.Load()-entries
	to := b.next.Load()
	t0 := time.Now()
	if err := p.audit(ctx); err != nil {
		return nil, fmt.Errorf("statefun audit failed: %w", err)
	}
	drainMs := float64(time.Since(t0)) / 1e6

	var sendUs, dispatchMs []float64
	msgs := 0
	for id := from; id < to; id++ {
		if b.status[id].Load() != stOK {
			continue
		}
		msgs++
		sendUs = append(sendUs, float64(p.sendNs[id])/1e3)
		dispatchMs = append(dispatchMs, nsToMs(b.done[id].Load()-p.returned[id]))
	}
	return map[string]float64{
		"statefun.send_us.p50":          pctl(sendUs, 0.5),
		"statefun.send_us.p99":          pctl(sendUs, 0.99),
		"statefun.dispatch_ms.p50":      pctl(dispatchMs, 0.5),
		"statefun.dispatch_ms.p99":      pctl(dispatchMs, 0.99),
		"statefun.handler_runs_per_msg": ratio(float64(entries), float64(msgs)),
		"statefun.dups":                 float64(p.dups.Load()),
		"statefun.rejected":             float64(p.mailboxRejected.Load()),
		"statefun.drain_ms":             drainMs,
		"faas.invocations_per_msg":      ratio(float64(invocations), float64(msgs)),
	}, nil
}

// audit drains every instance that was sent a message with a "get" Call
// (mailboxes are FIFO, so the reply follows every earlier message) and
// checks that its count equals the messages acknowledged to it, give or
// take the sends left in doubt: exactly-once-visible effects.
func (p *statefunPhase) audit(ctx context.Context) error {
	var mu sync.Mutex
	var firstErr error
	next := make(chan int32)
	var wg sync.WaitGroup
	for c := 0; c < drainCallers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := p.checkInstance(ctx, i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := int32(0); i < statefunInstances; i++ {
		if p.acked[i].Load()+p.inDoubt[i].Load() > 0 {
			next <- i
		}
	}
	close(next)
	wg.Wait()
	return firstErr
}

func (p *statefunPhase) checkInstance(ctx context.Context, i int32) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	var n int64
	if err := p.fn.Call(ctx, instName(i), "get", nil, &n); err != nil {
		return fmt.Errorf("drain %s: %w", instName(i), err)
	}
	acked, doubt := p.acked[i].Load(), p.inDoubt[i].Load()
	if n < acked || n > acked+doubt {
		return fmt.Errorf("instance %s counted %d messages, want between %d acknowledged and %d sent",
			instName(i), n, acked, acked+doubt)
	}
	st, err := p.fn.Status(ctx, instName(i))
	if err != nil {
		return fmt.Errorf("status %s: %w", instName(i), err)
	}
	p.dups.Add(st.Dups)
	p.mailboxRejected.Add(st.Rejected)
	return nil
}
