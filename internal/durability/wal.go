package durability

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"crucial/internal/telemetry"
)

// Storage is the slice of a cold object store the durability tier needs.
// *s3sim.Store satisfies it; a real deployment would back it with S3.
// Put and PutIfAbsent must treat data as read-only: they may copy it or
// keep it, but never write to it (the log hands Put a view of its live
// segment buffer; see Log.flusher).
type Storage interface {
	Put(ctx context.Context, key string, data []byte) error
	PutIfAbsent(ctx context.Context, key string, data []byte) (bool, error)
	Get(ctx context.Context, key string) ([]byte, error)
	List(ctx context.Context, prefix string) ([]string, error)
	Delete(ctx context.Context, key string) error
}

// ErrLogClosed fails commits whose flush the closing node abandoned.
var ErrLogClosed = errors.New("durability: log closed")

// walPrefix is the key namespace of one node's segments.
func walPrefix(node string) string { return "wal/" + node + "/" }

// segmentKey names one segment blob. Sequence numbers are dense and
// zero-padded so lexicographic key order is replay order.
func segmentKey(node string, seq uint64) string {
	return fmt.Sprintf("%sseg-%016d", walPrefix(node), seq)
}

// Commit is the durability ticket of one appended record: Wait blocks
// until the flush covering the record lands in cold storage (or fails).
// The coordinator's ack path waits on its own record's commit — that wait
// is what turns "applied in memory" into "survives a full-cluster crash".
type Commit struct {
	ch chan error
}

// Wait blocks for the record's flush outcome.
func (c *Commit) Wait(ctx context.Context) error {
	select {
	case err := <-c.ch:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

type queuedRecord struct {
	frame []byte
	done  chan error
}

// LogOptions configures OpenLog.
type LogOptions struct {
	Store Storage
	// Node namespaces the segment keys; each server logs under its own
	// prefix so independent recoveries never contend.
	Node string
	// SyncEvery caps records per flush (>= 1); SegmentBytes is the roll
	// threshold. Both arrive pre-normalized from core.DurabilityPolicy.
	SyncEvery    int
	SegmentBytes int
	// StartSeg is the first segment sequence to write: 1 on a fresh
	// store, maxSeg+1 after recovery so restarts never overwrite history.
	StartSeg uint64
	// Metrics and Tracer instrument the flush loop (both nil-safe).
	Metrics *telemetry.Registry
	Tracer  *telemetry.Tracer
}

// Log is one node's segmented write-ahead log. Appends enqueue encoded
// frames; a single flusher goroutine drains the queue in groups of up to
// SyncEvery records, rewriting the open segment blob per flush (object
// stores cannot append) and resolving each record's Commit when its flush
// lands. Group commit emerges naturally: every record that queues while a
// flush is in flight shares the next one.
type Log struct {
	store     Storage
	node      string
	syncEvery int
	segBytes  int
	tracer    *telemetry.Tracer

	cAppends *telemetry.Counter
	cFsyncs  *telemetry.Counter
	cBytes   *telemetry.Counter

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []queuedRecord
	buf    []byte // flushed content of the open segment
	segSeq uint64
	// appendSeq/flushedSeq order appends against flushes so SealSegment
	// can wait for exactly the records that preceded it (no starvation
	// under constant append load).
	appendSeq  uint64
	flushedSeq uint64
	closed     bool
}

// OpenLog starts a log's flusher.
func OpenLog(opts LogOptions) *Log {
	if opts.SyncEvery < 1 {
		opts.SyncEvery = 1
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 64 << 10
	}
	if opts.StartSeg == 0 {
		opts.StartSeg = 1
	}
	l := &Log{
		store:     opts.Store,
		node:      opts.Node,
		syncEvery: opts.SyncEvery,
		segBytes:  opts.SegmentBytes,
		tracer:    opts.Tracer,
		cAppends:  opts.Metrics.Counter(telemetry.MetWALAppends),
		cFsyncs:   opts.Metrics.Counter(telemetry.MetWALFsyncs),
		cBytes:    opts.Metrics.Counter(telemetry.MetWALBytes),
		segSeq:    opts.StartSeg,
	}
	l.cond = sync.NewCond(&l.mu)
	go l.flusher()
	return l
}

// Append queues one record and returns its durability ticket. The append
// itself never blocks on storage.
func (l *Log) Append(rec Record) *Commit {
	frame := AppendRecord(nil, rec)
	c := &Commit{ch: make(chan error, 1)}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		c.ch <- ErrLogClosed
		return c
	}
	l.queue = append(l.queue, queuedRecord{frame: frame, done: c.ch})
	l.appendSeq++
	l.cond.Broadcast()
	l.mu.Unlock()
	l.cAppends.Inc()
	return c
}

// flusher is the single writer to cold storage: it groups queued records,
// rewrites the open segment, rolls it past the size threshold and
// resolves the group's commits.
func (l *Log) flusher() {
	for {
		l.mu.Lock()
		for len(l.queue) == 0 && !l.closed {
			l.cond.Wait()
		}
		if l.closed {
			// Abrupt stop: unflushed records are lost exactly as they would
			// be in a crash — none were acked, since acks wait on commits.
			queue := l.queue
			l.queue = nil
			l.mu.Unlock()
			for _, q := range queue {
				q.done <- ErrLogClosed
			}
			return
		}
		take := len(l.queue)
		if take > l.syncEvery {
			take = l.syncEvery
		}
		batch := l.queue[:take:take]
		l.queue = l.queue[take:]
		for _, q := range batch {
			l.buf = append(l.buf, q.frame...)
		}
		seg := l.segSeq
		// The store gets a capped view of the segment buffer, not a copy.
		// Bytes below n are never rewritten: l.buf only grows (by this
		// goroutine, its only appender, after putSegment returns) or is
		// replaced by nil, and the cap keeps an append through data from
		// reaching the bytes that follow. Storage.Put must not write to
		// data, so the view stays valid however long the store keeps it.
		n := len(l.buf)
		data := l.buf[:n:n]
		l.mu.Unlock()

		err := l.putSegment(seg, data)

		l.mu.Lock()
		l.flushedSeq += uint64(take)
		if err == nil && len(l.buf) >= l.segBytes {
			// Seal: the blob already holds the full content; later appends
			// start the next segment.
			l.segSeq++
			l.buf = nil
		}
		l.cond.Broadcast()
		l.mu.Unlock()
		for _, q := range batch {
			q.done <- err
		}
	}
}

// putSegment writes one segment blob, retrying transient storage faults —
// a flush is the durability tier's fsync, and a single injected 5xx must
// not fail an ack the workload would simply have retried against S3.
func (l *Log) putSegment(seq uint64, data []byte) error {
	ctx, span := l.tracer.Start(context.Background(), telemetry.SpanWALAppend)
	defer span.End()
	var err error
	for attempt := 0; attempt < 5; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(attempt) * 2 * time.Millisecond)
			l.mu.Lock()
			closed := l.closed
			l.mu.Unlock()
			if closed {
				return ErrLogClosed
			}
		}
		if err = l.store.Put(ctx, segmentKey(l.node, seq), data); err == nil {
			l.cFsyncs.Inc()
			l.cBytes.Add(uint64(len(data)))
			return nil
		}
	}
	span.SetAttr(telemetry.AttrError, err.Error())
	return err
}

// SealSegment flushes every record appended before the call and cuts the
// open segment, returning the sequence number the next append will write
// to. The checkpoint protocol snapshots object state only after sealing:
// every record in segments below the returned cut was applied before the
// seal, so the snapshots taken after it cover them and the sealed
// segments can be truncated once the manifest lands.
func (l *Log) SealSegment(ctx context.Context) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	target := l.appendSeq
	for l.flushedSeq < target && !l.closed {
		// Poll via the flusher's broadcast; bail out if the caller's
		// context dies so a wedged store cannot hang the snapshotter.
		if ctx.Err() != nil {
			return 0, ctx.Err()
		}
		l.cond.Wait()
	}
	if l.closed {
		return 0, ErrLogClosed
	}
	if len(l.buf) > 0 {
		l.segSeq++
		l.buf = nil
	}
	return l.segSeq, nil
}

// Close stops the flusher abruptly; queued records fail with ErrLogClosed.
func (l *Log) Close() {
	l.mu.Lock()
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()
}
