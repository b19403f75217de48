package server

import (
	"context"
	"fmt"
	"sync"
	"time"

	"crucial/internal/core"
	"crucial/internal/durability"
	"crucial/internal/ring"
	"crucial/internal/telemetry"
	"crucial/internal/totalorder"
)

// Group commit on the SMR write path (DESIGN.md §5e): instead of one
// Skeen ordering round per mutation, concurrent writes to one object are
// queued per ref and flushed as a batch — one MsgID, one payload carrying
// up to WritePolicy.MaxBatch stamped invocations — so the whole replica
// group pays a single PROPOSE/FINAL exchange, one lease-revocation fence
// and one monitor acquisition for N operations. Up to
// WritePolicy.PipelineDepth rounds per ref may be in flight concurrently:
// the in-flight admission check only refuses *other* coordinators
// (inflightTracker.admit), and Skeen orders concurrent rounds from one
// origin consistently at every member, so pipelining overlaps round k's
// FINAL acks with round k+1's proposes without giving up linearizability.

// batchedWrite is one caller's mutation queued for group commit. done is
// buffered so a flush never blocks on a caller that gave up (context
// expiry abandons the channel; the outcome is simply dropped, exactly as
// the classic path drops a result its waiter stopped listening for — the
// client's retry is answered from the at-most-once window).
type batchedWrite struct {
	ctx  context.Context
	inv  core.Invocation
	done chan smrResult
}

// subResult is one sub-operation's outcome inside a delivered batch.
type subResult struct {
	results []any
	err     error
}

// batchOutcome is what the coordinator's in-order delivery of a batch
// reports back to flushBatch: per-sub-operation outcomes plus the
// post-batch apply version for the fork check. err is a batch-level
// failure (decode, missing base copy, fence) that voids the whole round.
type batchOutcome struct {
	res     []subResult
	version uint64
	err     error
	// commit is the round's WAL durability ticket (nil with the tier
	// off); the coordinator waits on it before distributing acks.
	commit *durability.Commit
}

// refQueue is the per-object batch state: queued writes, whether a
// dispatcher goroutine currently owns the queue, and the pipeline gate
// bounding concurrently outstanding rounds for this ref.
type refQueue struct {
	pending  []*batchedWrite
	running  bool
	inflight int
	slots    chan struct{}
}

// writeBatcher implements the coordinator-side submit queue. One
// dispatcher goroutine per active ref collects batches and launches flush
// goroutines; idle refs cost nothing (their queue entry is deleted once
// drained and settled).
type writeBatcher struct {
	n   *Node
	pol core.WritePolicy

	mu     sync.Mutex
	closed bool
	queues map[core.Ref]*refQueue
}

func newWriteBatcher(n *Node, pol core.WritePolicy) *writeBatcher {
	return &writeBatcher{n: n, pol: pol, queues: make(map[core.Ref]*refQueue)}
}

// submit queues one write for group commit and waits for its outcome.
func (b *writeBatcher) submit(ctx context.Context, inv core.Invocation) ([]any, error) {
	w := &batchedWrite{ctx: ctx, inv: inv, done: make(chan smrResult, 1)}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, core.ErrStopped
	}
	rq := b.queues[inv.Ref]
	if rq == nil {
		rq = &refQueue{slots: make(chan struct{}, b.pol.PipelineDepth())}
		b.queues[inv.Ref] = rq
	}
	rq.pending = append(rq.pending, w)
	if !rq.running {
		rq.running = true
		go b.dispatch(inv.Ref, rq)
	}
	b.mu.Unlock()
	select {
	case out := <-w.done:
		return out.results, out.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// dispatch drains one ref's queue: take a pipeline slot, pop up to
// MaxBatch writes, optionally linger MaxDelay for stragglers, and flush
// in the background. The slot is acquired BEFORE the queue is cut so that
// writes arriving while all slots are busy join the batch about to flush
// instead of waiting a full extra round — under saturation this is what
// lets batch sizes track the arrival rate. dispatch exits when the queue
// is empty; the next submit restarts it.
func (b *writeBatcher) dispatch(ref core.Ref, rq *refQueue) {
	for {
		b.mu.Lock()
		if b.closed {
			pending := rq.pending
			rq.pending, rq.running = nil, false
			b.mu.Unlock()
			failBatch(pending, core.ErrStopped)
			return
		}
		if len(rq.pending) == 0 {
			rq.running = false
			if rq.inflight == 0 && b.queues[ref] == rq {
				delete(b.queues, ref)
			}
			b.mu.Unlock()
			return
		}
		b.mu.Unlock()

		rq.slots <- struct{}{} // pipeline gate

		b.mu.Lock()
		take := len(rq.pending)
		if take > b.pol.MaxBatch {
			take = b.pol.MaxBatch
		}
		batch := rq.pending[:take:take]
		rq.pending = rq.pending[take:]
		b.mu.Unlock()

		if len(batch) < b.pol.MaxBatch && b.pol.MaxDelay > 0 {
			// Group-commit linger: trade this batch's latency for size.
			time.Sleep(b.pol.MaxDelay)
			b.mu.Lock()
			extra := b.pol.MaxBatch - len(batch)
			if extra > len(rq.pending) {
				extra = len(rq.pending)
			}
			batch = append(batch, rq.pending[:extra]...)
			rq.pending = rq.pending[extra:]
			b.mu.Unlock()
		}
		if len(batch) == 0 {
			// The queue emptied between the length check and the cut (close
			// raced in); release the slot and re-check.
			<-rq.slots
			continue
		}

		b.mu.Lock()
		rq.inflight++
		b.mu.Unlock()
		go func(batch []*batchedWrite) {
			b.n.flushBatch(ref, batch)
			<-rq.slots
			b.mu.Lock()
			rq.inflight--
			if rq.inflight == 0 && !rq.running && len(rq.pending) == 0 && b.queues[ref] == rq {
				delete(b.queues, ref)
			}
			b.mu.Unlock()
		}(batch)
	}
}

// close fails every queued write; dispatchers notice closed on their next
// pass and in-flight rounds run to completion (bounded by flushBatch's
// deadline) against the shutting-down transport.
func (b *writeBatcher) close() {
	b.mu.Lock()
	b.closed = true
	var orphaned [][]*batchedWrite
	for _, rq := range b.queues {
		if len(rq.pending) > 0 {
			orphaned = append(orphaned, rq.pending)
			rq.pending = nil
		}
	}
	b.mu.Unlock()
	for _, batch := range orphaned {
		failBatch(batch, core.ErrStopped)
	}
}

// failBatch reports one error to every write of a batch.
func failBatch(batch []*batchedWrite, err error) {
	for _, w := range batch {
		w.done <- smrResult{err: err}
	}
}

// submitBatched is invokeReplicated's entry into the group-commit path,
// attributing each caller's wait on its shared round to the per-invocation
// span the same way the classic path attributes its private round.
func (n *Node) submitBatched(ctx context.Context, inv core.Invocation) ([]any, error) {
	if !n.instrumented {
		return n.batcher.submit(ctx, inv)
	}
	start := time.Now()
	results, err := n.batcher.submit(ctx, inv)
	telemetry.SpanFromContext(ctx).AddTiming(telemetry.TimingSMR, time.Since(start))
	return results, err
}

// flushBatch runs one group-commit ordering round: the shared pre-work of
// the classic write path exactly once (primacy check, lease
// revoke-before-commit, residency pull, genesis determination), then a
// single multicast whose payload carries the whole batch, the wait for the
// coordinator's own in-order delivery, and one fork check before
// distributing per-sub-operation outcomes.
func (n *Node) flushBatch(ref core.Ref, batch []*batchedWrite) {
	// The round runs under its own deadline, not any caller's context: one
	// canceled caller must not fail the other writes sharing the round.
	// The bound covers the FINAL wait (10x peer timeout, like handleFinal)
	// and the lease fence's worst case (revocation plus holder expiry).
	bound := 10 * n.peerTimeout
	if bound <= 0 {
		bound = 20 * time.Second
	}
	if n.leases != nil {
		if lb := 4 * n.leases.ttl; lb > bound {
			bound = lb
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), bound)
	defer cancel()
	if n.instrumented {
		// One span per round, parented to the first caller's trace so
		// stages -report can attribute the shared ordering work.
		var span *telemetry.Span
		ctx, span = n.tracer.Start(telemetry.ContextWithSpan(ctx,
			telemetry.SpanFromContext(batch[0].ctx)), telemetry.SpanSMRBatch)
		span.SetAttr(telemetry.AttrObjectType, ref.Type)
		span.SetAttr(telemetry.AttrBatchSize, fmt.Sprint(len(batch)))
		defer span.End()
	}

	group, r := n.replicaGroup(ref, true)
	if r == nil || len(group) == 0 {
		failBatch(batch, core.ErrRebalancing)
		return
	}
	if group[0] != n.cfg.ID {
		failBatch(batch, fmt.Errorf("%w: %s belongs to %s", core.ErrWrongNode, ref, group[0]))
		return
	}
	if n.leases != nil {
		// One revoke-before-commit fence covers every write of the round.
		done, lerr := n.prepareWrite(ctx, ref)
		if lerr != nil {
			failBatch(batch, lerr)
			return
		}
		defer done()
	}
	genesis, err := n.ensureCoordinatorCopy(ctx, ref, group)
	if err == nil {
		err = n.checkGroupCurrent(ref, group)
	}
	if err != nil {
		failBatch(batch, err)
		return
	}
	flag := smrOpBatch
	if genesis {
		flag = smrOpBatchGenesis
	}

	parts := make([][]byte, 0, len(batch))
	live := batch[:0:0]
	for _, w := range batch {
		enc, encErr := core.EncodeInvocation(w.inv)
		if encErr != nil {
			w.done <- smrResult{err: encErr}
			continue
		}
		parts = append(parts, enc)
		live = append(live, w)
	}
	if len(live) == 0 {
		return
	}

	payload := totalorder.AppendBatch([]byte{flag}, parts)
	id := totalorder.MsgID{Origin: string(n.cfg.ID), Seq: n.seq.Add(1)}
	ch := make(chan batchOutcome, 1)
	n.batchWaitMu.Lock()
	if n.batchWaiters == nil {
		n.batchWaiters = make(map[totalorder.MsgID]chan batchOutcome)
	}
	n.batchWaiters[id] = ch
	n.batchWaitMu.Unlock()
	n.finalVerMu.Lock()
	if n.finalVers == nil {
		n.finalVers = make(map[totalorder.MsgID]map[ring.NodeID]uint64)
	}
	n.finalVers[id] = make(map[ring.NodeID]uint64, len(group)-1)
	n.finalVerMu.Unlock()
	defer func() {
		n.batchWaitMu.Lock()
		delete(n.batchWaiters, id)
		n.batchWaitMu.Unlock()
		n.finalVerMu.Lock()
		delete(n.finalVers, id)
		n.finalVerMu.Unlock()
	}()

	members := make([]string, len(group))
	for i, g := range group {
		members[i] = string(g)
	}
	if err := totalorder.Multicast(ctx, (*toTransport)(n), members, id, payload); err != nil {
		// Same contract as the classic path: a failed multicast means the
		// group is unreachable or the view is shifting; every caller gets
		// the retryable sentinel and the at-most-once window makes the
		// retries safe wherever the round did deliver.
		failBatch(live, fmt.Errorf("%w: %v", core.ErrRebalancing, err))
		return
	}
	n.smrOps.Add(uint64(len(live)))
	n.cSMRRounds.Inc()
	n.cBatches.Inc()
	n.hBatchSize.ObserveValue(int64(len(live)))
	select {
	case out := <-ch:
		if out.err != nil {
			failBatch(live, out.err)
			return
		}
		if err := n.checkRoundVersions(ref, id, out.version); err != nil {
			failBatch(live, err)
			return
		}
		if err := waitDurable(ctx, out.commit); err != nil {
			// The batch applied in memory but never reached cold storage; no
			// write of the round may be acked (the retries are dedup-safe).
			failBatch(live, err)
			return
		}
		n.log.Debug("smr batch round complete", "ref", ref.String(),
			"id", id.String(), "ops", len(live), "group", members, "genesis", genesis)
		for i, w := range live {
			w.done <- smrResult{results: out.res[i].results, err: out.res[i].err}
		}
	case <-ctx.Done():
		failBatch(live, fmt.Errorf("%w: batch %s finalized but not delivered within bound",
			core.ErrRebalancing, id))
	}
}
