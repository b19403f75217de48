package server

import (
	"sync"
	"time"

	"crucial/internal/core"
	"crucial/internal/totalorder"
)

// In-flight proposal tracking: one object must never have proposals from
// two different coordinators in flight at once.
//
// The view fence (see handlePropose) stops a stale primary from *starting* a
// round after a replica moved to the new view, but not this interleaving:
// a shared replica accepts the old primary's propose under view N,
// installs view N+1, then accepts the new primary's propose for the same
// object. Both rounds commit — each coordinator acknowledges a result
// computed on a copy that never sees the other's operation, and the two
// acknowledgments cannot be linearized (the nemesis observes two
// concurrent AddAndGets acknowledging the same counter value).
//
// The tracker closes the window: every accepted proposal is registered
// until it is delivered or aborted, and a propose for an object that has
// an undelivered proposal from a different origin is refused (the
// coordinator aborts and the client retries once the pending op settles).
// It also backs the snapshot barrier: an object with undelivered
// proposals is "busy", and serving a fetch for it would hand out a base
// copy missing an operation the receiver will never get by multicast.

// inflightEntry is one accepted, not yet settled proposal.
type inflightEntry struct {
	ref    core.Ref
	origin string
	at     time.Time
}

type inflightTracker struct {
	mu    sync.Mutex
	byID  map[totalorder.MsgID]inflightEntry
	byRef map[core.Ref]map[string]int // ref → origin → undelivered count
	ttl   time.Duration               // mirrors the total-order pending TTL
}

func newInflightTracker(ttl time.Duration) *inflightTracker {
	return &inflightTracker{
		byID:  make(map[totalorder.MsgID]inflightEntry),
		byRef: make(map[core.Ref]map[string]int),
		ttl:   ttl,
	}
}

// admit registers a proposal and reports whether it may be accepted.
// Duplicate admits of one ID (retried or chaos-duplicated frames) are
// idempotent.
func (t *inflightTracker) admit(id totalorder.MsgID, ref core.Ref) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gcLocked()
	if _, ok := t.byID[id]; ok {
		return true
	}
	for origin, cnt := range t.byRef[ref] {
		if cnt > 0 && origin != id.Origin {
			return false
		}
	}
	t.byID[id] = inflightEntry{ref: ref, origin: id.Origin, at: time.Now()}
	if t.byRef[ref] == nil {
		t.byRef[ref] = make(map[string]int)
	}
	t.byRef[ref][id.Origin]++
	return true
}

// settle removes a proposal after delivery or abort (no-op for unknown
// IDs, e.g. an abort for a refused propose).
func (t *inflightTracker) settle(id totalorder.MsgID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.removeLocked(id)
}

// busy reports whether ref has undelivered proposals.
func (t *inflightTracker) busy(ref core.Ref) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gcLocked()
	for _, cnt := range t.byRef[ref] {
		if cnt > 0 {
			return true
		}
	}
	return false
}

// purge drops proposals from origins that are no longer alive, mirroring
// the total-order layer's view-synchrony flush (PurgeOrigins).
func (t *inflightTracker) purge(alive func(origin string) bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id, e := range t.byID {
		if !alive(e.origin) {
			t.removeLocked(id)
		}
	}
}

// gcLocked expires entries past the TTL — the backstop for aborts that
// never arrive, mirroring the total-order pending GC.
func (t *inflightTracker) gcLocked() {
	if t.ttl <= 0 {
		return
	}
	cutoff := time.Now().Add(-t.ttl)
	for id, e := range t.byID {
		if e.at.Before(cutoff) {
			t.removeLocked(id)
		}
	}
}

func (t *inflightTracker) removeLocked(id totalorder.MsgID) {
	e, ok := t.byID[id]
	if !ok {
		return
	}
	delete(t.byID, id)
	if origins := t.byRef[e.ref]; origins != nil {
		if origins[e.origin]--; origins[e.origin] <= 0 {
			delete(origins, e.origin)
		}
		if len(origins) == 0 {
			delete(t.byRef, e.ref)
		}
	}
}
