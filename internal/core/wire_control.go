package core

import (
	"encoding/binary"
	"fmt"

	"crucial/internal/totalorder"
)

// Control frames: the node↔node messages of the replication protocol and
// the lease messages between a primary, its followers and client caches,
// on the tag codec of wire.go. Each message kind has exactly one fixed
// layout. Only LeaseResponse.Init is a tagged value list, so user types in
// an object's init arguments keep the per-value gob tag the RegisterValue
// contract requires; nothing else in a control frame touches gob.
//
// Layouts after the three-byte preamble (integers uvarint unless stated,
// strings and byte slices uvarint length + bytes):
//
//	'P' propose:        Origin (string), Seq, Fence, Payload (bytes)
//	'T' timestamp:      TS (the reply to a propose)
//	'F' final:          Origin, Seq, TS
//	'f' final reply:    flags byte (bit0 = Known), Version
//	'A' abort:          Origin, Seq
//	'G' fetch:          Type, Key (strings)
//	'L' lease request:  Type, Key, flags byte (bit0 = Persist, bit1 =
//	                    Replica), HolderAddr (string)
//	'l' lease reply:    flags byte (bit0 = Granted), Reason (string),
//	                    TTLMillis (zigzag varint), Epoch, Version, Init
//	                    (value list), Snapshot (bytes)
//	'V' lease revoke:   Type, Key, Epoch
//	'X' invalidate:     Type, Key, Epoch
//
// Decoders copy everything they return out of the input (the rpc server
// recycles a request buffer once its handler returns, and a propose's
// payload lives on in the total-order queue) and reject trailing bytes.
const (
	wirePropose       = 'P'
	wireTimestamp     = 'T'
	wireFinal         = 'F'
	wireFinalResp     = 'f'
	wireAbort         = 'A'
	wireFetch         = 'G'
	wireLeaseRequest  = 'L'
	wireLeaseResponse = 'l'
	wireLeaseRevoke   = 'V'
	wireInvalidate    = 'X'
)

// ProposeMsg is the Skeen PROPOSE of one replicated operation (or one
// group-commit batch). Fence is the coordinator's membership digest
// (membership.View.Fence): a receiver refuses proposes from a coordinator
// whose view of the cluster differs from its own.
type ProposeMsg struct {
	ID      totalorder.MsgID
	Payload []byte
	Fence   uint64
}

// FinalMsg is the Skeen FINAL: the agreed delivery timestamp of ID.
type FinalMsg struct {
	ID totalorder.MsgID
	TS uint64
}

// FinalResp answers a FINAL once the member has applied the message.
// Version is the member copy's apply version right after that apply;
// Known distinguishes a real version 0 from "not recorded", which skips
// the coordinator's fork check.
type FinalResp struct {
	Version uint64
	Known   bool
}

// LeaseRequest asks an object's primary for a lease. Replica requests come
// from group members and carry the node ID in HolderAddr; client requests
// carry the address of the client's invalidation listener.
type LeaseRequest struct {
	Ref     Ref
	Persist bool
	Replica bool
	// HolderAddr is where revocation reaches the holder; it also keys the
	// holder in the primary's table, so renewals update in place.
	HolderAddr string
}

// LeaseResponse answers a LeaseRequest. A refused grant carries the reason
// (diagnostics only — clients just fall back to a remote invoke).
type LeaseResponse struct {
	Granted bool
	Reason  string
	// TTLMillis is the lease duration. Holders must count it from before
	// the request was sent, which is provably at or before the server's
	// own start point.
	TTLMillis int64
	Epoch     uint64
	// Version is the copy's apply count at grant time: the snapshot's
	// version for client leases, the floor a follower's copy must have
	// reached for replica leases.
	Version uint64
	// Init and Snapshot let a client lease materialize the object locally.
	// Empty for replica leases (the follower already holds a copy).
	Init     []any
	Snapshot []byte
}

// Revocation ends the leases on Ref granted before Epoch: a primary
// revoking a follower's replica lease, or invalidating a client cache's
// copy. The epoch keeps a delayed revocation from killing a newer lease.
type Revocation struct {
	Ref   Ref
	Epoch uint64
}

// beginFrame appends the preamble of one control frame and counts it.
func beginFrame(dst []byte, kind byte) []byte {
	codecStats.fastEncodes.Add(1)
	return append(dst, wireMagic, wireVersion, kind)
}

func appendMsgID(dst []byte, id totalorder.MsgID) []byte {
	return binary.AppendUvarint(appendString(dst, id.Origin), id.Seq)
}

func appendRef(dst []byte, ref Ref) []byte {
	return appendString(appendString(dst, ref.Type), ref.Key)
}

// AppendPropose appends the PROPOSE frame of m to dst.
func AppendPropose(dst []byte, m ProposeMsg) []byte {
	dst = appendMsgID(beginFrame(dst, wirePropose), m.ID)
	dst = binary.AppendUvarint(dst, m.Fence)
	return appendBytes(dst, m.Payload)
}

// DecodePropose parses a PROPOSE frame. The payload is copied.
func DecodePropose(data []byte) (ProposeMsg, error) {
	r := newCtlReader(data, wirePropose)
	m := ProposeMsg{ID: r.msgID(), Fence: r.uvarint(), Payload: r.bytes()}
	if err := r.end("propose"); err != nil {
		return ProposeMsg{}, err
	}
	return m, nil
}

// AppendTimestamp appends the reply to a PROPOSE: the member's proposed
// timestamp.
func AppendTimestamp(dst []byte, ts uint64) []byte {
	return binary.AppendUvarint(beginFrame(dst, wireTimestamp), ts)
}

// DecodeTimestamp parses a PROPOSE reply.
func DecodeTimestamp(data []byte) (uint64, error) {
	r := newCtlReader(data, wireTimestamp)
	ts := r.uvarint()
	if err := r.end("propose reply"); err != nil {
		return 0, err
	}
	return ts, nil
}

// AppendFinal appends the FINAL frame of m to dst.
func AppendFinal(dst []byte, m FinalMsg) []byte {
	return binary.AppendUvarint(appendMsgID(beginFrame(dst, wireFinal), m.ID), m.TS)
}

// DecodeFinal parses a FINAL frame.
func DecodeFinal(data []byte) (FinalMsg, error) {
	r := newCtlReader(data, wireFinal)
	m := FinalMsg{ID: r.msgID(), TS: r.uvarint()}
	if err := r.end("final"); err != nil {
		return FinalMsg{}, err
	}
	return m, nil
}

// AppendFinalResp appends the reply to a FINAL.
func AppendFinalResp(dst []byte, m FinalResp) []byte {
	var flags byte
	if m.Known {
		flags |= 1
	}
	return binary.AppendUvarint(append(beginFrame(dst, wireFinalResp), flags), m.Version)
}

// DecodeFinalResp parses a FINAL reply.
func DecodeFinalResp(data []byte) (FinalResp, error) {
	r := newCtlReader(data, wireFinalResp)
	m := FinalResp{Known: r.flag(1), Version: r.uvarint()}
	if err := r.end("final reply"); err != nil {
		return FinalResp{}, err
	}
	return m, nil
}

// AppendAbort appends the ABORT of message id to dst.
func AppendAbort(dst []byte, id totalorder.MsgID) []byte {
	return appendMsgID(beginFrame(dst, wireAbort), id)
}

// DecodeAbort parses an ABORT frame.
func DecodeAbort(data []byte) (totalorder.MsgID, error) {
	r := newCtlReader(data, wireAbort)
	id := r.msgID()
	if err := r.end("abort"); err != nil {
		return totalorder.MsgID{}, err
	}
	return id, nil
}

// AppendFetch appends a pull-on-miss request for ref's copy to dst.
func AppendFetch(dst []byte, ref Ref) []byte {
	return appendRef(beginFrame(dst, wireFetch), ref)
}

// DecodeFetch parses a pull-on-miss request.
func DecodeFetch(data []byte) (Ref, error) {
	r := newCtlReader(data, wireFetch)
	ref := r.ref()
	if err := r.end("fetch"); err != nil {
		return Ref{}, err
	}
	return ref, nil
}

// AppendLeaseRequest appends the frame of m to dst.
func AppendLeaseRequest(dst []byte, m LeaseRequest) []byte {
	dst = appendRef(beginFrame(dst, wireLeaseRequest), m.Ref)
	var flags byte
	if m.Persist {
		flags |= 1
	}
	if m.Replica {
		flags |= 2
	}
	return appendString(append(dst, flags), m.HolderAddr)
}

// DecodeLeaseRequest parses a lease request.
func DecodeLeaseRequest(data []byte) (LeaseRequest, error) {
	r := newCtlReader(data, wireLeaseRequest)
	m := LeaseRequest{Ref: r.ref()}
	flags := r.u8()
	m.Persist, m.Replica = flags&1 != 0, flags&2 != 0
	m.HolderAddr = r.str()
	if err := r.end("lease request"); err != nil {
		return LeaseRequest{}, err
	}
	return m, nil
}

// AppendLeaseResponse appends the frame of m to dst. It fails only when an
// Init value is of a type gob cannot encode.
func AppendLeaseResponse(dst []byte, m LeaseResponse) ([]byte, error) {
	RegisterValueTypes() // an Init value may need the gob registrations
	var flags byte
	if m.Granted {
		flags |= 1
	}
	dst = appendString(append(beginFrame(dst, wireLeaseResponse), flags), m.Reason)
	dst = binary.AppendVarint(dst, m.TTLMillis)
	dst = binary.AppendUvarint(binary.AppendUvarint(dst, m.Epoch), m.Version)
	dst, err := appendValues(dst, m.Init)
	if err != nil {
		return nil, fmt.Errorf("core: encode lease response init: %w", err)
	}
	return appendBytes(dst, m.Snapshot), nil
}

// DecodeLeaseResponse parses a lease response. The snapshot is copied.
func DecodeLeaseResponse(data []byte) (LeaseResponse, error) {
	RegisterValueTypes() // an Init value may carry the gob tag
	r := newCtlReader(data, wireLeaseResponse)
	m := LeaseResponse{
		Granted:   r.flag(1),
		Reason:    r.str(),
		TTLMillis: r.varint(),
		Epoch:     r.uvarint(),
		Version:   r.uvarint(),
		Init:      r.values(),
		Snapshot:  r.bytes(),
	}
	if err := r.end("lease response"); err != nil {
		return LeaseResponse{}, err
	}
	return m, nil
}

// AppendLeaseRevoke appends a primary's revocation of a follower's replica
// lease to dst.
func AppendLeaseRevoke(dst []byte, m Revocation) []byte {
	return binary.AppendUvarint(appendRef(beginFrame(dst, wireLeaseRevoke), m.Ref), m.Epoch)
}

// DecodeLeaseRevoke parses a replica-lease revocation.
func DecodeLeaseRevoke(data []byte) (Revocation, error) {
	return decodeRevocation(data, wireLeaseRevoke, "lease revoke")
}

// AppendInvalidate appends a primary's invalidation of a client cache's
// leased copy to dst.
func AppendInvalidate(dst []byte, m Revocation) []byte {
	return binary.AppendUvarint(appendRef(beginFrame(dst, wireInvalidate), m.Ref), m.Epoch)
}

// DecodeInvalidate parses a client-cache invalidation.
func DecodeInvalidate(data []byte) (Revocation, error) {
	return decodeRevocation(data, wireInvalidate, "invalidate")
}

func decodeRevocation(data []byte, kind byte, what string) (Revocation, error) {
	r := newCtlReader(data, kind)
	m := Revocation{Ref: r.ref(), Epoch: r.uvarint()}
	if err := r.end(what); err != nil {
		return Revocation{}, err
	}
	return m, nil
}

// ctlReader reads one control frame with a sticky error: after the first
// failure every read returns a zero value and end reports the failure, so
// a fixed layout decodes as a straight sequence of reads. Go evaluates the
// calls in a composite literal left to right, so a literal whose fields
// are listed in wire order reads the frame in order.
type ctlReader struct {
	r   wireReader
	err error
}

func newCtlReader(data []byte, kind byte) ctlReader {
	c := ctlReader{r: wireReader{b: data}}
	c.err = c.r.preamble(kind)
	return c
}

// read runs one wireReader read unless an earlier one failed.
func read[T any](c *ctlReader, f func() (T, error)) T {
	var v T
	if c.err == nil {
		v, c.err = f()
	}
	return v
}

func (c *ctlReader) u8() byte           { return read(c, c.r.u8) }
func (c *ctlReader) flag(bit byte) bool { return c.u8()&bit != 0 }
func (c *ctlReader) uvarint() uint64    { return read(c, c.r.uvarint) }
func (c *ctlReader) varint() int64      { return read(c, c.r.varint) }
func (c *ctlReader) str() string        { return read(c, c.r.str) }
func (c *ctlReader) bytes() []byte      { return read(c, c.r.bytes) }
func (c *ctlReader) values() []any      { return read(c, c.r.values) }

func (c *ctlReader) ref() Ref {
	return Ref{Type: c.str(), Key: c.str()}
}

func (c *ctlReader) msgID() totalorder.MsgID {
	return totalorder.MsgID{Origin: c.str(), Seq: c.uvarint()}
}

// end reports the first read error, or trailing bytes after the layout,
// wrapped with the message name; a clean frame counts as one fast decode.
func (c *ctlReader) end(what string) error {
	if c.err == nil && c.r.remaining() != 0 {
		c.err = fmt.Errorf("%d trailing bytes", c.r.remaining())
	}
	if c.err != nil {
		return fmt.Errorf("core: decode %s: %w", what, c.err)
	}
	codecStats.fastDecodes.Add(1)
	return nil
}
