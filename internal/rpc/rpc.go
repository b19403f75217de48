// Package rpc implements the framed, multiplexed request/response protocol
// used between DSO clients, DSO server nodes, and the simulated cloud
// services.
//
// Design constraints, in order of importance:
//
//  1. A single connection must support many outstanding requests, because
//     synchronization objects (barriers, futures) block server side for
//     arbitrarily long: the server runs every request in its own goroutine
//     and writes responses as they complete, in any order.
//  2. Cancellation must propagate: a caller abandoning a request (context
//     cancelled) must not wedge the connection.
//  3. The framing must be transport-agnostic so the same protocol runs over
//     TCP (cmd/dso-server) and over in-memory pipes (tests, benchmarks).
//  4. The hot path must not allocate: payload buffers are pooled
//     (GetBuffer/PutBuffer), frames are appended straight into a shared
//     write buffer, and concurrent writers on one connection coalesce
//     into a single Write (one syscall carries many frames).
//
// Frame layout (big endian):
//
//	uint32  payload length
//	uint64  request id
//	uint8   kind (application-defined multiplexing tag)
//	uint8   flags (request / response / error-response)
//	[]byte  payload
//
// The frame layout is unchanged since the seed; payload *contents* moved
// from whole-message gob to the tag codec of internal/core/wire.go, which
// is self-identifying (magic byte): invocation and response decoders
// accept both payload formats frame by frame, while the replication and
// lease control frames (internal/core/wire_control.go) have exactly one.
package rpc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"crucial/internal/core"
)

const (
	flagRequest  = 0x01
	flagResponse = 0x02
	flagError    = 0x04

	headerSize = 4 + 8 + 1 + 1

	// MaxPayload bounds a single frame. Large transfers (dataset blobs in
	// s3sim) stay well under this.
	MaxPayload = 64 << 20
)

// ErrClientClosed is returned by Call after Close, or when the underlying
// connection fails.
var ErrClientClosed = errors.New("rpc: client closed")

// ErrRemote matches (errors.Is) every error Call returns because the
// peer's handler answered with one. Such an error says nothing about the
// connection, which stays usable for every other call multiplexed on it;
// its text is exactly the handler's err.Error(), so callers matching
// sentinels by their text keep working.
var ErrRemote = errors.New("rpc: remote error")

// remoteError is a handler error carried back in an error response.
type remoteError struct{ msg string }

func (e *remoteError) Error() string        { return e.msg }
func (e *remoteError) Is(target error) bool { return target == ErrRemote }

// Payload buffer pool. Incoming frame payloads, outgoing encode buffers
// and handler responses all cycle through here so a warmed-up connection
// serves calls without per-message allocations.
const (
	// minBuffer is the capacity of freshly allocated pool buffers;
	// typical invocation frames are well under this.
	minBuffer = 4 << 10
	// maxPooledBuffer keeps one-off giants (dataset blobs) out of the
	// pool so they do not pin memory.
	maxPooledBuffer = 256 << 10
)

var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, minBuffer)
		return &b
	},
}

// GetBuffer returns a zero-length buffer with capacity of at least n from
// the payload pool. Hand it back with PutBuffer when the data encoded or
// decoded from it is no longer referenced.
func GetBuffer(n int) []byte {
	bp := bufPool.Get().(*[]byte)
	b := *bp
	if cap(b) >= n {
		return b[:0]
	}
	bufPool.Put(bp)
	if n < minBuffer {
		n = minBuffer
	}
	return make([]byte, 0, n)
}

// PutBuffer recycles a buffer previously handed out by GetBuffer (or any
// buffer the caller owns outright). The caller must not touch b again.
func PutBuffer(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledBuffer {
		return
	}
	b = b[:0]
	bufPool.Put(&b)
}

type frame struct {
	id      uint64
	kind    uint8
	flags   uint8
	payload []byte
}

// appendFrame appends the frame's wire image to dst.
func appendFrame(dst []byte, f frame) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(f.payload)))
	dst = binary.BigEndian.AppendUint64(dst, f.id)
	dst = append(dst, f.kind, f.flags)
	return append(dst, f.payload...)
}

// connWriter serializes and coalesces frame writes on one connection.
// Concurrent writers append their frames to a shared buffer; the first
// one in becomes the flusher and carries everyone's bytes out in a single
// conn.Write per round, so N goroutines hammering one connection cost
// ~1 syscall per batch instead of N. A failed write closes the connection
// (unblocking the peer's read loop) and poisons the writer.
type connWriter struct {
	conn net.Conn

	mu       sync.Mutex
	err      error
	buf      []byte // frames waiting to be written
	spare    []byte // double buffer swapped with buf on each flush
	flushing bool
	// direct disables coalescing: each write performs its own
	// conn.Write under the lock (the pre-coalescing behavior, kept for
	// A/B benchmarks and debugging).
	direct bool
	// onFlush, when non-nil, runs after every conn.Write that carried
	// frames out (one call per flush, not per frame), under mu — it must
	// be cheap and non-blocking. The DSO client uses it to count write
	// flushes for the client.write_flushes metric.
	onFlush func()
}

// flushed reports one completed conn.Write to the hook. Callers hold mu.
func (w *connWriter) flushed() {
	if w.onFlush != nil {
		w.onFlush()
	}
}

func (w *connWriter) write(f frame) error {
	if len(f.payload) > MaxPayload {
		return fmt.Errorf("rpc: payload %d exceeds limit", len(f.payload))
	}
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	if w.direct {
		w.buf = appendFrame(w.buf[:0], f)
		_, err := w.conn.Write(w.buf)
		if err != nil {
			w.fail(err)
		} else {
			w.flushed()
		}
		w.mu.Unlock()
		return err
	}
	w.buf = appendFrame(w.buf, f)
	if w.flushing {
		// The active flusher will pick these bytes up before it exits;
		// a write failure surfaces through the connection teardown.
		w.mu.Unlock()
		return nil
	}
	w.flushing = true
	for w.err == nil && len(w.buf) > 0 {
		out := w.buf
		w.buf = w.spare[:0]
		w.spare = nil
		w.mu.Unlock()
		_, err := w.conn.Write(out)
		w.mu.Lock()
		if err != nil {
			w.fail(err)
		} else {
			w.flushed()
		}
		if cap(out) <= maxPooledBuffer {
			w.spare = out[:0]
		}
	}
	w.flushing = false
	err := w.err
	w.mu.Unlock()
	return err
}

// fail poisons the writer and closes the connection so both directions
// (including a blocked read loop) observe the failure. Callers hold mu.
func (w *connWriter) fail(err error) {
	if w.err == nil {
		w.err = err
		_ = w.conn.Close()
	}
}

// readFrame reads one frame, drawing the payload buffer from the pool.
// Ownership of the payload passes to the caller, who may recycle it with
// PutBuffer once decoded.
func readFrame(r io.Reader) (frame, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if n > MaxPayload {
		return frame{}, fmt.Errorf("rpc: incoming payload %d exceeds limit", n)
	}
	f := frame{
		id:    binary.BigEndian.Uint64(hdr[4:12]),
		kind:  hdr[12],
		flags: hdr[13],
	}
	if n > 0 {
		f.payload = GetBuffer(int(n))[:n]
		if _, err := io.ReadFull(r, f.payload); err != nil {
			return frame{}, err
		}
	}
	return f, nil
}

// Handler processes one request. kind is the application multiplexing tag;
// the returned bytes are shipped back as the response payload. Returning an
// error sends an error response carrying err.Error(), which the caller's
// Call returns as an error matching ErrRemote. Handlers run in their
// own goroutine per request and may block (that is the point).
//
// Buffer ownership: payload is only valid for the duration of the call —
// the server recycles it after the handler returns, so handlers must copy
// anything they keep (every decoder in this codebase copies). The returned
// slice is recycled by the server once the response frame is written;
// handlers must hand back a buffer they own (a fresh allocation or one
// from GetBuffer) and not retain it.
type Handler func(ctx context.Context, kind uint8, payload []byte) ([]byte, error)

// Server serves the protocol on any net.Listener.
type Server struct {
	handler Handler

	mu       sync.Mutex
	closed   bool
	listener net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup

	baseCtx    context.Context
	cancelBase context.CancelFunc
}

// NewServer returns a server dispatching to handler.
func NewServer(handler Handler) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		handler:    handler,
		conns:      make(map[net.Conn]struct{}),
		baseCtx:    ctx,
		cancelBase: cancel,
	}
}

// Serve accepts connections on l until Close. It returns the accept error
// that terminated the loop (net.ErrClosed after a clean Close).
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = l.Close()
		return ErrClientClosed
	}
	s.listener = l
	s.mu.Unlock()

	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return net.ErrClosed
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()

	w := &connWriter{conn: conn}
	var reqWG sync.WaitGroup
	defer reqWG.Wait()

	for {
		f, err := readFrame(conn)
		if err != nil {
			return
		}
		if f.flags&flagRequest == 0 {
			PutBuffer(f.payload)
			continue // ignore stray frames
		}
		reqWG.Add(1)
		go func(f frame) {
			defer reqWG.Done()
			out, herr := s.handler(s.baseCtx, f.kind, f.payload)
			resp := frame{id: f.id, kind: f.kind, flags: flagResponse}
			if herr != nil {
				resp.flags |= flagError
				resp.payload = []byte(herr.Error())
			} else {
				resp.payload = out
			}
			err := w.write(resp)
			// Both buffers are dead once the frame is out: the request
			// payload (handlers may not retain it) and the response
			// (copied into the write buffer). Guard against a handler
			// echoing the request buffer back so it is not pooled twice.
			aliased := len(out) > 0 && len(f.payload) > 0 && &out[0] == &f.payload[0]
			PutBuffer(f.payload)
			if !aliased {
				PutBuffer(resp.payload)
			}
			if err != nil {
				_ = conn.Close()
			}
		}(f)
	}
}

// Close stops accepting, closes every connection and cancels the contexts
// of in-flight handlers, then waits for connection goroutines to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	l := s.listener
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	s.cancelBase()
	if l != nil {
		_ = l.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
	return nil
}

type pending struct {
	ch chan result
}

type result struct {
	payload []byte
	err     error
}

// chPool recycles the one-shot result channels of Call. A channel re-enters
// the pool only when provably drained and senderless: either its result was
// received, or the caller removed its pending entry before any sender could
// observe it.
var chPool = sync.Pool{
	New: func() any { return make(chan result, 1) },
}

// Observer receives one sample per completed Call: the multiplexing kind,
// the round-trip time (including server-side blocking), the request
// payload size, and the terminal error (nil on success). Implementations
// must be safe for concurrent use; telemetry installs one to feed RPC
// latency histograms without the rpc package depending on it.
type Observer func(kind uint8, rtt time.Duration, sent int, err error)

// Client multiplexes calls over a single connection.
type Client struct {
	conn net.Conn
	w    *connWriter

	mu      sync.Mutex
	pending map[uint64]pending
	closed  bool
	readErr error

	// observer is loaded on every Call with one atomic read, so the
	// uninstrumented path pays a couple of nanoseconds at most.
	observer atomic.Pointer[Observer]

	nextID atomic.Uint64
	done   chan struct{}
}

// NewClient wraps an established connection. The client owns the
// connection and closes it on Close. Write coalescing is on by default;
// SetWriteCoalescing(false) reverts to one Write per frame.
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:    conn,
		w:       &connWriter{conn: conn},
		pending: make(map[uint64]pending),
		done:    make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// SetWritePolicy applies a write policy's transport-level knob to this
// connection: core.WritePolicy.DirectWrites (MaxBatch < 0) reverts frame
// coalescing to one conn.Write per frame, any other policy keeps
// coalescing on. The batching knobs themselves (MaxBatch, MaxDelay,
// Pipeline) act one layer up, on the SMR ordering path — the rpc layer
// only honors the debug escape hatch. Meant to be set right after
// NewClient; flipping it mid-traffic is safe but the switch is not
// synchronized with in-flight writes.
func (c *Client) SetWritePolicy(p core.WritePolicy) {
	c.w.mu.Lock()
	c.w.direct = p.DirectWrites()
	c.w.mu.Unlock()
}

// SetFlushHook installs fn to run after every completed write flush on
// this connection (one call per conn.Write, which may carry many frames).
// fn runs under the writer lock and must be cheap; pass nil to remove.
func (c *Client) SetFlushHook(fn func()) {
	c.w.mu.Lock()
	c.w.onFlush = fn
	c.w.mu.Unlock()
}

// SetWriteCoalescing toggles batching of concurrent writes into single
// conn.Write calls.
//
// Deprecated: use SetWritePolicy — SetWriteCoalescing(false) is
// SetWritePolicy(core.WritePolicy{MaxBatch: -1}), SetWriteCoalescing(true)
// is the zero policy. Kept as a shim so existing A/B benchmarks and tests
// keep working.
func (c *Client) SetWriteCoalescing(enable bool) {
	if enable {
		c.SetWritePolicy(core.WritePolicy{})
	} else {
		c.SetWritePolicy(core.WritePolicy{MaxBatch: -1})
	}
}

// Dial connects over TCP and returns a client.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: dial %s: %w", addr, err)
	}
	return NewClient(conn), nil
}

func (c *Client) readLoop() {
	defer close(c.done)
	for {
		f, err := readFrame(c.conn)
		if err != nil {
			c.failAll(fmt.Errorf("%w: %v", ErrClientClosed, err))
			return
		}
		if f.flags&flagResponse == 0 {
			PutBuffer(f.payload)
			continue
		}
		c.mu.Lock()
		p, ok := c.pending[f.id]
		if ok {
			delete(c.pending, f.id)
		}
		c.mu.Unlock()
		if !ok {
			PutBuffer(f.payload)
			continue // caller gave up (context cancelled)
		}
		if f.flags&flagError != 0 {
			p.ch <- result{err: &remoteError{msg: string(f.payload)}}
			PutBuffer(f.payload)
		} else {
			p.ch <- result{payload: f.payload}
		}
	}
}

func (c *Client) failAll(err error) {
	c.mu.Lock()
	c.readErr = err
	ps := make([]pending, 0, len(c.pending))
	for id, p := range c.pending {
		ps = append(ps, p)
		delete(c.pending, id)
	}
	c.mu.Unlock()
	for _, p := range ps {
		p.ch <- result{err: err}
	}
}

// SetObserver installs a per-call sampler (nil removes it).
func (c *Client) SetObserver(f Observer) {
	if f == nil {
		c.observer.Store(nil)
		return
	}
	c.observer.Store(&f)
}

// Call sends one request and waits for its response or context
// cancellation. It is safe for concurrent use.
//
// The returned payload is a pooled buffer owned by the caller; callers on
// hot paths may hand it back with PutBuffer once they have fully decoded
// it (decoders must not retain references into it afterwards). Callers
// that never recycle simply let the garbage collector take it.
func (c *Client) Call(ctx context.Context, kind uint8, payload []byte) ([]byte, error) {
	if obs := c.observer.Load(); obs != nil {
		start := time.Now()
		out, err := c.call(ctx, kind, payload)
		(*obs)(kind, time.Since(start), len(payload), err)
		return out, err
	}
	return c.call(ctx, kind, payload)
}

func (c *Client) call(ctx context.Context, kind uint8, payload []byte) ([]byte, error) {
	id := c.nextID.Add(1)
	ch := chPool.Get().(chan result)

	c.mu.Lock()
	if c.closed || c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		chPool.Put(ch)
		if err == nil {
			err = ErrClientClosed
		}
		return nil, err
	}
	c.pending[id] = pending{ch: ch}
	c.mu.Unlock()

	err := c.w.write(frame{id: id, kind: kind, flags: flagRequest, payload: payload})
	if err != nil {
		c.mu.Lock()
		_, mine := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if mine {
			chPool.Put(ch)
		}
		return nil, fmt.Errorf("rpc: send: %w", err)
	}

	select {
	case r := <-ch:
		chPool.Put(ch)
		return r.payload, r.err
	case <-ctx.Done():
		c.mu.Lock()
		_, mine := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if mine {
			// No sender can exist: the entry was still ours, so the read
			// loop never saw it. Safe to recycle.
			chPool.Put(ch)
		}
		// Otherwise the read loop (or failAll) owns the channel and its
		// imminent send; abandon it to the garbage collector.
		return nil, ctx.Err()
	}
}

// Close tears down the connection and fails outstanding calls.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.conn.Close()
	<-c.done
	return err
}

var _ io.Closer = (*Client)(nil)
