package server

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"crucial/internal/core"
	"crucial/internal/durability"
	"crucial/internal/ring"
	"crucial/internal/rpc"
	"crucial/internal/telemetry"
	"crucial/internal/totalorder"
)

// State-machine replication of persistent objects (paper Section 4.1):
// operations on an object with rf > 1 are disseminated to its replica group
// with total-order multicast; every replica applies them in delivery order
// on its local copy, and the primary returns the result to the caller.

type smrResult struct {
	results []any
	err     error
	// version is the coordinator copy's apply version immediately after
	// this op, captured under the object monitor (see execOn). Compared
	// against the members' FINAL-reply versions before acking.
	version uint64
	// commit is the op's WAL durability ticket (nil with the tier off).
	// The coordinator waits on it before acking — see waitDurable.
	commit *durability.Commit
}

// The Skeen control messages travel as fixed-layout frames of the tag
// codec (core.ProposeMsg, core.FinalMsg, core.FinalResp; see
// internal/core/wire_control.go). A PROPOSE carries the coordinator's
// membership digest (membership.View.Fence): a receiver refuses proposes
// from a coordinator whose view of the cluster differs from its own.
// Skeen's protocol needs every group member's propose to succeed, so
// during a view transition any replica shared between the old and the new
// replica group fences out the stale coordinator — without the fence, the
// old and the new primary can both commit ops for the same object to
// overlapping groups and fork its lineage (two clients acknowledged the
// same counter value). A FINAL reply carries the member copy's apply
// version right after the op, for the coordinator's fork check (see
// checkRoundVersions); Known distinguishes a real version 0 (a read-only
// genesis round) from "version not recorded" (the apply raced the
// bookkeeping window), and an unknown version skips the comparison.

// SMR payloads carry a one-byte prefix ahead of the encoded invocation:
// whether the coordinator held a copy of the object when it multicast the
// op. A replica that receives a non-genesis op for an object it does not
// hold is missing its base copy (the hand-off transfer has not arrived) —
// applying the op to a freshly created object would fork the lineage, so
// it skips the apply and pulls a base copy instead (see deliverSMR).
const (
	smrOpExisting byte = 0 // the coordinator already held the object
	smrOpGenesis  byte = 1 // first-ever op: replicas may create it fresh
	// Group-commit rounds (see batch.go): the body is a totalorder batch
	// container of N encoded invocations, all targeting one ref. The
	// genesis distinction carries over from the single-op prefixes and
	// applies to the batch as a whole — residency was checked once by the
	// coordinator before the round.
	smrOpBatch        byte = 2
	smrOpBatchGenesis byte = 3
)

// invokeReplicated is the primary-side path for persistent objects: the
// contacted node must be the primary replica; it multicasts the operation
// to the group and waits for its own in-order delivery to produce the
// result.
func (n *Node) invokeReplicated(ctx context.Context, inv core.Invocation) ([]any, error) {
	group, r := n.replicaGroup(inv.Ref, true)
	if r == nil || len(group) == 0 {
		return nil, core.ErrRebalancing
	}
	if group[0] != n.cfg.ID {
		if inv.ReadOnly && n.leases != nil && contains(group, n.cfg.ID) {
			// Follower read: serve the read from our replica copy under a
			// primary-granted lease instead of bouncing to the primary.
			return n.followerRead(ctx, inv, group[0])
		}
		return nil, fmt.Errorf("%w: %s belongs to %s", core.ErrWrongNode, inv.Ref, group[0])
	}
	info, err := n.cfg.Registry.Lookup(inv.Ref.Type)
	if err != nil {
		return nil, err
	}
	if info.Synchronization {
		// Synchronization objects are never replicated (paper, fn. 2).
		return n.invokeLocal(ctx, inv)
	}
	if results, err, ok := n.tryLocalRead(ctx, inv); ok {
		// Read-only calls at a provably-current primary skip the ordering
		// round entirely; writes it has not applied were never acked, so
		// the read linearizes at its execution under the object monitor.
		return results, err
	}
	if n.batcher != nil && !inv.ReadOnly {
		// Group commit (Config.Write): the mutation joins a per-ref batch
		// and shares one ordering round, one lease fence and one monitor
		// acquisition with its concurrent neighbors. Everything below is
		// the classic one-round-per-op path, kept verbatim for disabled
		// policies and for the read-only rounds of lease-less clusters.
		return n.submitBatched(ctx, inv)
	}
	if n.leases != nil && !inv.ReadOnly {
		// Revoke-before-commit: block new grants, synchronously invalidate
		// every cached copy and follower lease, and only then order the
		// mutation. Grants resume (at the post-write version) once the
		// primary has applied the op and replied.
		done, lerr := n.prepareWrite(ctx, inv.Ref)
		if lerr != nil {
			return nil, lerr
		}
		defer done()
	}

	genesis, err := n.ensureCoordinatorCopy(ctx, inv.Ref, group)
	if err != nil {
		return nil, err
	}
	if err := n.checkGroupCurrent(inv.Ref, group); err != nil {
		return nil, err
	}
	flag := smrOpExisting
	if genesis {
		flag = smrOpGenesis
	}

	encInv, err := core.EncodeInvocation(inv)
	if err != nil {
		return nil, err
	}
	payload := append([]byte{flag}, encInv...)
	id := totalorder.MsgID{Origin: string(n.cfg.ID), Seq: n.seq.Add(1)}
	ch := make(chan smrResult, 1)
	n.waitMu.Lock()
	n.waiters[id] = ch
	n.waitMu.Unlock()
	n.finalVerMu.Lock()
	if n.finalVers == nil {
		n.finalVers = make(map[totalorder.MsgID]map[ring.NodeID]uint64)
	}
	n.finalVers[id] = make(map[ring.NodeID]uint64, len(group)-1)
	n.finalVerMu.Unlock()
	defer func() {
		n.waitMu.Lock()
		delete(n.waiters, id)
		n.waitMu.Unlock()
		n.finalVerMu.Lock()
		delete(n.finalVers, id)
		n.finalVerMu.Unlock()
	}()

	members := make([]string, len(group))
	for i, g := range group {
		members[i] = string(g)
	}
	// Telemetry: attribute the whole ordering round — multicast, in-order
	// delivery, replica execution — to the active server span so reports
	// can separate SMR cost from plain method execution.
	var orderStart time.Time
	if n.instrumented {
		orderStart = time.Now()
	}
	if err := totalorder.Multicast(ctx, (*toTransport)(n), members, id, payload); err != nil {
		// A failed multicast means part of the replica group is
		// unreachable or the view is changing under our feet (a member
		// crashed between group computation and propose). Either way the
		// client should re-route and retry — surface the rebalancing
		// sentinel, which survives the wire's string encoding as a prefix
		// (unlike an error buried mid-text). At-most-once dedup makes the
		// retry safe even if this round did deliver somewhere.
		return nil, fmt.Errorf("%w: %v", core.ErrRebalancing, err)
	}
	n.smrOps.Add(1)
	n.cSMRRounds.Inc()
	select {
	case res := <-ch:
		if n.instrumented {
			telemetry.SpanFromContext(ctx).AddTiming(telemetry.TimingSMR, time.Since(orderStart))
		}
		if err := n.checkRoundVersions(inv.Ref, id, res.version); err != nil {
			return nil, err
		}
		if err := waitDurable(ctx, res.commit); err != nil {
			// The op is applied in memory but its record never reached cold
			// storage; acking would promise crash durability the tier cannot
			// honor. No ack — the client's retry is dedup-safe.
			return nil, err
		}
		n.log.Debug("smr round complete", "ref", inv.Ref.String(),
			"method", inv.Method, "id", id.String(), "group", members,
			"genesis", flag == smrOpGenesis, "err", res.err)
		return res.results, res.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// ensureCoordinatorCopy makes sure this node may safely coordinate an
// ordering round for ref, and reports whether the round must be flagged
// genesis. The single-op path and the group-commit flush share it; for a
// batch it runs once per round, not per write.
func (n *Node) ensureCoordinatorCopy(ctx context.Context, ref core.Ref, group []ring.NodeID) (genesis bool, err error) {
	_, resident := n.lookupExisting(ref)
	if (!resident || n.isStale(ref)) && len(group) > 1 {
		// The primary holds no copy, or holds one marked behind the
		// committed history (a delivery was skipped before its base
		// installed). A miss is either a genuinely new object or one whose
		// hand-off transfer never reached us (the view changed while we
		// were partitioned, or the pusher died mid-transfer). Creating a
		// fresh object in the second case would silently discard all prior
		// state — and coordinating on a stale copy would ack results
		// computed on state missing acknowledged ops. Ask the other
		// replicas for a copy first; only a unanimous miss is creation.
		installed, busy := n.pullObject(ctx, ref, group)
		if installed {
			resident = true
		}
		if !resident && busy {
			// A peer holds a copy but has in-flight ops for it; adopting a
			// snapshot now would miss them. Bounce the client to retry once
			// they settle.
			return false, fmt.Errorf("%w: %s busy at a peer", core.ErrRebalancing, ref)
		}
		if n.isStale(ref) {
			// The pull could not prove the local copy current (no peer
			// reachable, or every candidate busy). Bounce rather than ack
			// a write computed on a possibly-behind copy.
			return false, fmt.Errorf("%w: %s stale on %s", core.ErrRebalancing, ref, n.cfg.ID)
		}
	}
	return !resident, nil
}

// checkGroupCurrent re-reads ref's replica group once the coordinator's
// blocking preparation is over (the lease fence wait after a view change,
// the pull of a missing copy) and bounces the round if a view installed
// meanwhile moved the group. The receivers' propose fence cannot catch
// this: the fence travels from the coordinator's view at send time, not
// from the view the group was computed in. A round sent to the old group
// would apply on the coordinator and skip at a member that dropped its
// copy in the new view. The coordinator's copy is then ahead of the
// group's other copy, and a later dedup replay on one side against a
// fresh execution on the other can even out the version numbers the fork
// check compares, leaving the fork undetected.
func (n *Node) checkGroupCurrent(ref core.Ref, group []ring.NodeID) error {
	if now, _ := n.replicaGroup(ref, true); !slices.Equal(now, group) {
		return fmt.Errorf("%w: replica group of %s moved from %v to %v",
			core.ErrRebalancing, ref, group, now)
	}
	return nil
}

// checkRoundVersions is the coordinator's fork check, run after its own
// in-order apply and before the ack. Every member that reported a
// post-apply version (core.FinalResp) must agree with the coordinator's: the
// total order delivers the same op sequence everywhere, so disagreement
// means one side's copy carries a different history. The typical cause is
// a resurrected older snapshot — the member replays the op from its
// at-most-once window (no version bump) while the coordinator re-executes
// it fresh, and acking would commit a lineage missing acknowledged
// writes. Instead: no ack (the retry is dedup-safe), and the behind side
// is repaired — the coordinator marks itself stale and pulls, or pushes
// its copy to a behind member.
func (n *Node) checkRoundVersions(ref core.Ref, id totalorder.MsgID, local uint64) error {
	n.finalVerMu.Lock()
	vs := n.finalVers[id]
	n.finalVerMu.Unlock()
	for member, v := range vs {
		switch {
		case v > local:
			n.log.Warn("replica ahead of coordinator, refusing ack",
				"ref", ref.String(), "id", id.String(), "member", string(member),
				"member_version", v, "local_version", local)
			n.markStale(ref)
			go n.selfHeal(ref)
			return fmt.Errorf("%w: %s version %d behind replica %s at %d",
				core.ErrRebalancing, ref, local, member, v)
		case v < local:
			n.log.Warn("replica behind coordinator, refusing ack",
				"ref", ref.String(), "id", id.String(), "member", string(member),
				"member_version", v, "local_version", local)
			if e, ok := n.lookupExisting(ref); ok {
				m := member
				go func() {
					if err := n.pushObject(ref, e, m); err != nil {
						n.log.Debug("repair push failed", "ref", ref.String(),
							"target", string(m), "err", err)
					}
				}()
			}
			return fmt.Errorf("%w: replica %s of %s at version %d behind coordinator at %d",
				core.ErrRebalancing, member, ref, v, local)
		}
	}
	return nil
}

// deliverSMR applies one totally-ordered operation to the local replica and
// completes the coordinator's waiter if this node originated it.
//
// An op for an object this replica does not hold is applied only when the
// coordinator flagged it as genesis (first-ever op). Otherwise the base
// copy is missing — the hand-off transfer has not arrived yet — and
// applying to a fresh object would fork the lineage: this replica would
// hold a copy reflecting only the ops it saw, yet look authoritative to a
// later version comparison. The delivery is skipped (the op is safe in the
// other replicas' copies and in any snapshot taken after it) and a
// background pull restores this replica's base copy.
//
// The return value reports whether the op was applied to this replica's
// copy. The coordinator's FINAL round waits on it (see handleFinal): a
// skipped or bounced delivery returns false, the coordinator's multicast
// fails, and the client gets a retryable error instead of an ack — so an
// acknowledged op is guaranteed applied at every group member, and no
// single crash can take the only copy of an acknowledged write with it.
// Deterministic method errors still count as applied: every replica
// executes them identically, so the copies agree.
func (n *Node) deliverSMR(id totalorder.MsgID, payload []byte) bool {
	if isBatchPayload(payload) {
		return n.deliverSMRBatch(id, payload)
	}
	n.inflight.settle(id)
	var results []any
	var version uint64
	var commit *durability.Commit
	versionKnown := false
	genesis, body, err := splitSMRPayload(payload)
	if err == nil {
		var inv core.Invocation
		inv, err = core.DecodeInvocation(body)
		if err == nil {
			e, resident := n.lookupExisting(inv.Ref)
			switch {
			case !resident && !genesis:
				n.log.Debug("skipping committed op without base copy",
					"ref", inv.Ref.String(), "origin", id.Origin)
				err = fmt.Errorf("%w: %s has no base copy on %s",
					core.ErrRebalancing, inv.Ref, n.cfg.ID)
				// The copy this node eventually installs may be a snapshot
				// taken before this op; mark the ref so the write, grant,
				// and local-read paths refuse it until a barrier-protected
				// pull proves the copy current (see markStale).
				n.markStale(inv.Ref)
				go n.selfHeal(inv.Ref)
			default:
				if !resident {
					e, err = n.lookupOrCreate(inv)
				}
				if err == nil {
					// Member-side revoke-before-commit: leases *this* node
					// granted on the ref (it may be the new primary while a
					// deposed coordinator still writes under its old view)
					// must die before the FINAL reply that gates the ack.
					var release func()
					release, err = n.memberWriteFence(id.Origin, inv)
					if err != nil {
						// The revocation round could not complete, so a
						// stale lease may outlive this op; refuse the apply
						// (no ack — the retry is dedup-safe) and heal: the
						// other members applied, so our copy is now behind.
						n.markStale(inv.Ref)
						go n.selfHeal(inv.Ref)
					} else {
						// SMR ops never block (no sync objects), so
						// Background is a safe execution context here.
						results, version, err = n.execOn(context.Background(), e, inv)
						versionKnown = true
						release()
						if !inv.ReadOnly && !errors.Is(err, core.ErrRebalancing) {
							// The op reached this copy (deterministic method
							// errors included — replicas reproduce them); log
							// it. Every replica logs its own WAL; only the
							// coordinator's ticket gates the ack.
							commit = n.appendWAL(id.Origin, id.Seq, version, payload)
						}
						if err == nil {
							k := telemetry.ObjectKey{Type: inv.Ref.Type, Key: inv.Ref.Key}
							n.objTrack.ObserveApply(k, 1)
							n.bundleTrack.ObserveApply(k, 1)
						}
						n.log.Debug("smr op applied", "ref", inv.Ref.String(),
							"method", inv.Method, "id", id.String(), "version", version)
					}
				}
			}
		}
	}
	n.waitMu.Lock()
	ch, ok := n.waiters[id]
	n.waitMu.Unlock()
	if ok {
		ch <- smrResult{results: results, err: err, version: version, commit: commit}
	} else if versionKnown {
		// Member side: remember the post-apply version for the FINAL reply
		// (see handleFinal and recordApplyVersion).
		n.recordApplyVersion(id, version)
	}
	// Rebalancing-class failures (no base copy, copy mid-transfer) mean
	// the op did not reach this copy; anything else is a deterministic
	// outcome shared by every replica.
	return err == nil || !errors.Is(err, core.ErrRebalancing)
}

// deliverSMRBatch applies one totally-ordered group-commit round: every
// sub-invocation of the batch, in payload order, to the local copy under a
// single member write fence and a single monitor acquisition. The
// correctness story is per sub-operation exactly as for singles — each is
// individually dedup-checked and dedup-recorded, so a retried write that
// lands in a later batch replays instead of re-executing, and duplicate
// delivery of the whole batch is impossible (one MsgID, and the protocol
// layer delivers each id at most once). The batch applies all-or-nothing
// with respect to rebalancing-class failures (missing base copy, fence
// failure, mid-transfer copy): those void the round before any
// sub-operation runs, so the single applied verdict the protocol layer
// expects remains sound; deterministic method errors of individual
// sub-operations count as applied, as every replica reproduces them.
func (n *Node) deliverSMRBatch(id totalorder.MsgID, payload []byte) bool {
	n.inflight.settle(id)
	var out batchOutcome
	versionKnown := false
	genesis, invs, err := splitSMRBatchPayload(payload)
	if err != nil {
		out.err = err
	} else {
		ref := invs[0].Ref
		e, resident := n.lookupExisting(ref)
		switch {
		case !resident && !genesis:
			// Same as the single-op skip: no base copy, applying would
			// fork the lineage. The whole batch is skipped and the copy
			// healed in the background.
			n.log.Debug("skipping committed batch without base copy",
				"ref", ref.String(), "origin", id.Origin, "ops", len(invs))
			out.err = fmt.Errorf("%w: %s has no base copy on %s",
				core.ErrRebalancing, ref, n.cfg.ID)
			n.markStale(ref)
			go n.selfHeal(ref)
		default:
			if !resident {
				e, out.err = n.lookupOrCreate(invs[0])
			}
			if out.err == nil {
				// Fence amortization: one member-side revocation round
				// covers every write of the batch — leases must be dead
				// before the first sub-op applies, and grants resume only
				// after the last.
				release, ferr := n.memberWriteFence(id.Origin, invs[0])
				if ferr != nil {
					n.markStale(ref)
					go n.selfHeal(ref)
					out.err = ferr
				} else {
					out.res, out.version, out.err = n.execBatchOn(context.Background(), e, invs)
					versionKnown = out.err == nil
					release()
					if out.err == nil {
						// One record carries the whole batch; replay re-applies
						// its sub-operations through the same dedup window.
						out.commit = n.appendWAL(id.Origin, id.Seq, out.version, payload)
						k := telemetry.ObjectKey{Type: ref.Type, Key: ref.Key}
						n.objTrack.ObserveApply(k, len(invs))
						n.bundleTrack.ObserveApply(k, len(invs))
					}
					n.log.Debug("smr batch applied", "ref", ref.String(),
						"id", id.String(), "ops", len(invs), "version", out.version)
				}
			}
		}
	}
	n.batchWaitMu.Lock()
	ch, ok := n.batchWaiters[id]
	n.batchWaitMu.Unlock()
	if ok {
		ch <- out
	} else if versionKnown {
		// Member side: the post-batch version feeds the FINAL reply's fork
		// check, same bookkeeping as a single op (see deliverSMR).
		n.recordApplyVersion(id, out.version)
	}
	return out.err == nil || !errors.Is(out.err, core.ErrRebalancing)
}

// recordApplyVersion remembers a member-side post-apply version for the
// FINAL reply (see handleFinal). Bounded: an apply whose FINAL handler
// already gave up waiting leaves an orphan entry, so the map is pruned
// arbitrarily past a cap — a pruned entry only downgrades the
// coordinator's version comparison to "unknown", never corrupts it.
func (n *Node) recordApplyVersion(id totalorder.MsgID, version uint64) {
	n.applyVerMu.Lock()
	if n.applyVers == nil {
		n.applyVers = make(map[totalorder.MsgID]uint64)
	}
	if len(n.applyVers) > 4096 {
		for k := range n.applyVers {
			delete(n.applyVers, k)
			if len(n.applyVers) <= 2048 {
				break
			}
		}
	}
	n.applyVers[id] = version
	n.applyVerMu.Unlock()
}

// refOfSMRPayload extracts the target object of an SMR payload, for the
// in-flight conflict check on the propose path (see inflightTracker). A
// batch decodes to its first sub-invocation's ref — all sub-operations of
// a round share one object by construction.
func refOfSMRPayload(payload []byte) (core.Ref, error) {
	if isBatchPayload(payload) {
		parts, err := totalorder.SplitBatch(payload[1:])
		if err != nil {
			return core.Ref{}, err
		}
		inv, err := core.DecodeInvocation(parts[0])
		if err != nil {
			return core.Ref{}, err
		}
		return inv.Ref, nil
	}
	_, body, err := splitSMRPayload(payload)
	if err != nil {
		return core.Ref{}, err
	}
	inv, err := core.DecodeInvocation(body)
	if err != nil {
		return core.Ref{}, err
	}
	return inv.Ref, nil
}

// isBatchPayload reports whether an SMR payload carries a group-commit
// batch container rather than a single invocation.
func isBatchPayload(payload []byte) bool {
	return len(payload) > 0 && (payload[0] == smrOpBatch || payload[0] == smrOpBatchGenesis)
}

// splitSMRBatchPayload decodes a group-commit payload into its genesis
// flag and sub-invocations. All sub-invocations must target the same ref;
// a mixed batch is a protocol violation and voids the round.
func splitSMRBatchPayload(payload []byte) (genesis bool, invs []core.Invocation, err error) {
	if !isBatchPayload(payload) {
		return false, nil, fmt.Errorf("server: not an smr batch payload")
	}
	genesis = payload[0] == smrOpBatchGenesis
	parts, err := totalorder.SplitBatch(payload[1:])
	if err != nil {
		return false, nil, err
	}
	invs = make([]core.Invocation, len(parts))
	for i, p := range parts {
		if invs[i], err = core.DecodeInvocation(p); err != nil {
			return false, nil, fmt.Errorf("server: batch part %d: %w", i, err)
		}
		if invs[i].Ref != invs[0].Ref {
			return false, nil, fmt.Errorf("server: batch mixes refs %s and %s",
				invs[0].Ref, invs[i].Ref)
		}
	}
	return genesis, invs, nil
}

// splitSMRPayload strips the genesis prefix from an SMR payload.
func splitSMRPayload(payload []byte) (genesis bool, body []byte, err error) {
	if len(payload) < 1 {
		return false, nil, fmt.Errorf("server: empty smr payload")
	}
	switch payload[0] {
	case smrOpGenesis:
		return true, payload[1:], nil
	case smrOpExisting:
		return false, payload[1:], nil
	default:
		return false, nil, fmt.Errorf("server: bad smr payload prefix 0x%02x", payload[0])
	}
}

// toTransport adapts the node's peer RPC connections to the total-order
// protocol. Messages to self short-circuit without network or simulated
// latency; messages to peers pay one DSOReplica hop each way.
type toTransport Node

func (t *toTransport) node() *Node { return (*Node)(t) }

// Propose implements totalorder.Transport.
func (t *toTransport) Propose(ctx context.Context, target string, id totalorder.MsgID, payload []byte) (uint64, error) {
	n := t.node()
	if target == string(n.cfg.ID) {
		// The local propose passes the same single-coordinator admission
		// check as a remote one: if another coordinator's op for this
		// object is still in flight here, this round must not start.
		ref, err := refOfSMRPayload(payload)
		if err != nil {
			return 0, err
		}
		if !n.inflight.admit(id, ref) {
			return 0, fmt.Errorf("%w: %s has an op in flight from another coordinator",
				core.ErrRebalancing, ref)
		}
		return n.to.HandlePropose(id, payload), nil
	}
	view, _ := n.currentView()
	body := core.AppendPropose(rpc.GetBuffer(0), core.ProposeMsg{ID: id, Payload: payload, Fence: view.Fence()})
	out, err := n.peerCall(ctx, ring.NodeID(target), KindPropose, body)
	rpc.PutBuffer(body)
	if err != nil {
		return 0, err
	}
	ts, err := core.DecodeTimestamp(out)
	rpc.PutBuffer(out)
	return ts, err
}

// Final implements totalorder.Transport. Remote replies carry the
// member's post-apply version (core.FinalResp); it is collected into the
// coordinator's per-round table for the fork check in invokeReplicated.
func (t *toTransport) Final(ctx context.Context, target string, id totalorder.MsgID, ts uint64) error {
	n := t.node()
	if target == string(n.cfg.ID) {
		n.to.HandleFinal(id, ts)
		return nil
	}
	body := core.AppendFinal(rpc.GetBuffer(0), core.FinalMsg{ID: id, TS: ts})
	out, err := n.peerCall(ctx, ring.NodeID(target), KindFinal, body)
	rpc.PutBuffer(body)
	if err != nil {
		return err
	}
	resp, derr := core.DecodeFinalResp(out)
	rpc.PutBuffer(out)
	if derr == nil && resp.Known {
		n.finalVerMu.Lock()
		if vs, ok := n.finalVers[id]; ok {
			vs[ring.NodeID(target)] = resp.Version
		}
		n.finalVerMu.Unlock()
	}
	return nil
}

// Abort implements totalorder.Transport.
func (t *toTransport) Abort(ctx context.Context, target string, id totalorder.MsgID) error {
	n := t.node()
	if target == string(n.cfg.ID) {
		n.inflight.settle(id)
		n.to.Drop(id)
		return nil
	}
	body := core.AppendAbort(rpc.GetBuffer(0), id)
	out, err := n.peerCall(ctx, ring.NodeID(target), KindAbort, body)
	rpc.PutBuffer(body)
	rpc.PutBuffer(out)
	return err
}

var _ totalorder.Transport = (*toTransport)(nil)

// peerCall performs one inter-node RPC with simulated replica-link latency,
// a per-attempt timeout (see Config.PeerCallTimeout) and a single redial on
// connection failure. The timeout is what turns a frame lost in the network
// into an error the protocol layer can clean up after; an unbounded call
// would wedge the coordinator and, with it, the total-order queue. An
// error answered by the peer's handler (rpc.ErrRemote: a fenced propose,
// ErrRebalancing, ...) returns at once: the connection is healthy and
// carries every other call to that peer, and a resend would meet the same
// answer.
func (n *Node) peerCall(ctx context.Context, id ring.NodeID, kind uint8, body []byte) ([]byte, error) {
	if err := n.profile.Delay(ctx, n.profile.DSOReplica); err != nil {
		return nil, err
	}
	for attempt := 0; ; attempt++ {
		c, err := n.peer(id)
		if err != nil {
			return nil, err
		}
		callCtx := ctx
		var cancel context.CancelFunc
		if n.peerTimeout > 0 {
			callCtx, cancel = context.WithTimeout(ctx, n.peerTimeout)
		}
		out, err := c.Call(callCtx, kind, body)
		if cancel != nil {
			cancel()
		}
		if err == nil || errors.Is(err, rpc.ErrRemote) {
			return out, err
		}
		n.dropPeer(id)
		if attempt >= 1 || ctx.Err() != nil {
			return nil, err
		}
		// Brief pause before redial: the peer may be restarting.
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// handleAbort services a peer's ABORT.
func (n *Node) handleAbort(payload []byte) ([]byte, error) {
	id, err := core.DecodeAbort(payload)
	if err != nil {
		return nil, err
	}
	n.inflight.settle(id)
	n.to.Drop(id)
	return nil, nil
}

// handlePropose services a peer's PROPOSE. Proposes from a coordinator
// whose membership view disagrees with ours are refused (see the view
// fence above): the coordinator aborts the round and the client retries
// once the views converge — a transient bounce, never a fork.
func (n *Node) handlePropose(payload []byte) ([]byte, error) {
	// The decoder copies the SMR payload out of the request buffer, which
	// the rpc server recycles on return; the total-order queue keeps it.
	msg, err := core.DecodePropose(payload)
	if err != nil {
		return nil, err
	}
	view, _ := n.currentView()
	if fence := view.Fence(); msg.Fence != fence {
		return nil, fmt.Errorf("%w: propose from %s fenced (view mismatch)",
			core.ErrRebalancing, msg.ID.Origin)
	}
	// Single-coordinator admission: the fence above compares whole views,
	// but it cannot stop this interleaving — we accept the old primary's
	// op, install the next view, then the new primary proposes for the
	// same object while the first op is still undelivered. Two coordinators
	// would each ack a result the other never sees. Refuse the newcomer;
	// its round aborts and the client retries after the pending op settles.
	ref, err := refOfSMRPayload(msg.Payload)
	if err != nil {
		return nil, err
	}
	if !n.inflight.admit(msg.ID, ref) {
		return nil, fmt.Errorf("%w: %s has an op in flight from another coordinator",
			core.ErrRebalancing, ref)
	}
	ts := n.to.HandlePropose(msg.ID, msg.Payload)
	return core.AppendTimestamp(rpc.GetBuffer(0), ts), nil
}

// handleFinal services a peer's FINAL. It replies only once the message
// has been applied here, not merely finalized: the coordinator's
// Multicast waits on this reply before its own delivery acks the client,
// so the reply is the guarantee that an acknowledged operation exists at
// every group member. A finalized-but-undelivered message (stuck behind
// an earlier pending op) acked in that window would live solely in the
// coordinator's memory — a coordinator crash would drop it, the view
// change would purge the stuck proposal, and the survivors would agree on
// a history missing an acknowledged write. The wait bound matches the
// orphan TTL that limits how long a zombie proposal can stall delivery;
// on expiry the coordinator surfaces a retryable error instead of acking
// (the at-most-once window makes the client's retry safe either way).
func (n *Node) handleFinal(payload []byte) ([]byte, error) {
	msg, err := core.DecodeFinal(payload)
	if err != nil {
		return nil, err
	}
	n.to.HandleFinal(msg.ID, msg.TS)
	// Floor the wait bound: a negative Config.PeerCallTimeout disables the
	// per-attempt RPC bound and zeroes peerTimeout, but this wait still
	// needs a real deadline — at zero, any finalized op queued behind an
	// earlier pending message would fail its FINAL immediately and the
	// coordinator would spuriously abort the round.
	pt := n.peerTimeout
	if pt <= 0 {
		pt = 2 * time.Second // the Config.PeerCallTimeout default
	}
	if !n.to.WaitDelivered(msg.ID, 10*pt) {
		return nil, fmt.Errorf("%w: %s finalized but not yet applied on %s",
			core.ErrRebalancing, msg.ID, n.cfg.ID)
	}
	// Report the local post-apply version so the coordinator can verify
	// the copies did not fork (see checkRoundVersions). The entry was
	// recorded by deliverSMR; consume it so the map stays bounded.
	var resp core.FinalResp
	n.applyVerMu.Lock()
	if v, ok := n.applyVers[msg.ID]; ok {
		resp.Version, resp.Known = v, true
		delete(n.applyVers, msg.ID)
	}
	n.applyVerMu.Unlock()
	return core.AppendFinalResp(rpc.GetBuffer(0), resp), nil
}
