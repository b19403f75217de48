package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"sync/atomic"
)

// Fast wire codec for the invocation hot path.
//
// Every DSO method call serializes one Invocation and one Response. The
// original format was per-message encoding/gob, which re-transmits full
// type metadata on every message because the encoder stream never
// persists across frames. This file replaces it with a compact,
// self-describing tag format for the argument types the built-in object
// library uses (the RegisterValueTypes set); anything else falls back to
// gob transparently, value by value, so the RegisterValue contract is
// unchanged.
//
// Layout (all integers varint unless stated):
//
//	byte    wireMagic (0xC7)
//	byte    wireVersion (1)
//	byte    kind: 'I' invocation | 'R' response | a control frame
//	        (wire_control.go: the SMR and lease messages)
//
//	invocation: Type, Key, Method (strings), Args values, Init values,
//	            flags byte (bit0 = Persist, bit1 = stamped, bit2 =
//	            read-only), TraceID, SpanID (uvarint), then — only when
//	            bit1 is set — ClientID, Seq (uvarint): the at-most-once
//	            stamp. The stamp is appended after every field an old
//	            decoder reads, and old decoders ignore trailing bytes, so
//	            stamped frames remain decodable by pre-stamp peers (which
//	            simply execute without dedup). Pre-lease decoders likewise
//	            ignore flag bit2 and treat every call as a write, which is
//	            always safe.
//	response:   Results values, Err (string)
//
// A value list is a uvarint count followed by tagged values; strings and
// byte slices are uvarint length + bytes; floats are fixed 8 (or 4) bytes
// big endian. The gob fallback tag carries a uvarint length + a complete
// single-value gob stream.
//
// Wire compatibility: a gob stream's first byte is either a small length
// (<= 0x7F) or a negative byte-count marker (>= 0xF8), so wireMagic 0xC7
// can never begin a legacy gob message. Decoders accept both formats:
// frames without the magic take the legacy gob path (counted in
// CodecStats.LegacyGobDecodes). A future layout change must bump
// wireVersion; decoders reject unknown versions loudly rather than
// misparse.
const (
	wireMagic   = 0xC7
	wireVersion = 1

	wireInvocation = 'I'
	wireResponse   = 'R'
)

// Value tags. The set mirrors RegisterValueTypes; tagGob is the escape
// hatch for user-registered types.
const (
	tagNil = iota
	tagFalse
	tagTrue
	tagInt     // zigzag varint, decodes as int
	tagInt32   // zigzag varint
	tagInt64   // zigzag varint
	tagUint64  // uvarint
	tagFloat32 // 4 bytes big endian
	tagFloat64 // 8 bytes big endian
	tagString
	tagBytes
	tagIntSlice     // count + zigzag varints
	tagInt64Slice   // count + zigzag varints
	tagFloat64Slice // count + 8 bytes each
	tagFloat64Mat   // row count + one tagFloat64Slice body per row
	tagStringSlice
	tagAnySlice // count + tagged values (recursive)
	tagMapStrAny
	tagMapStrStr
	tagMapStrF64
	tagMapStrI64
	tagGob // uvarint length + single-value gob stream of `any`
)

// maxValueDepth bounds recursion through nested []any / map[string]any
// values so a corrupt or hostile frame cannot overflow the stack.
const maxValueDepth = 64

// CodecStats are process-wide counters of the wire codec, readable at any
// time (ReadCodecStats) and exported on the /metrics endpoint.
type CodecStats struct {
	// FastEncodes and FastDecodes count whole messages through the tag
	// codec: invocations, responses and control frames.
	FastEncodes uint64
	FastDecodes uint64
	// LegacyGobDecodes counts whole messages that arrived in the
	// pre-codec gob format (old peers).
	LegacyGobDecodes uint64
	// FallbackValues counts individual values inside fast messages that
	// needed the gob escape hatch (user-registered types).
	FallbackValues uint64
	// StampedDecodes and UnstampedDecodes split decoded invocations by
	// whether they carried an at-most-once (ClientID, Seq) stamp. A
	// persistently non-zero unstamped count means pre-stamp clients (or
	// control-plane tools) are still talking to this process; their
	// retries keep the legacy at-least-once semantics.
	StampedDecodes   uint64
	UnstampedDecodes uint64
}

var codecStats struct {
	fastEncodes      atomic.Uint64
	fastDecodes      atomic.Uint64
	legacyGobDecodes atomic.Uint64
	fallbackValues   atomic.Uint64
	stampedDecodes   atomic.Uint64
	unstampedDecodes atomic.Uint64
}

// ReadCodecStats returns a snapshot of the process-wide codec counters.
func ReadCodecStats() CodecStats {
	return CodecStats{
		FastEncodes:      codecStats.fastEncodes.Load(),
		FastDecodes:      codecStats.fastDecodes.Load(),
		LegacyGobDecodes: codecStats.legacyGobDecodes.Load(),
		FallbackValues:   codecStats.fallbackValues.Load(),
		StampedDecodes:   codecStats.stampedDecodes.Load(),
		UnstampedDecodes: codecStats.unstampedDecodes.Load(),
	}
}

// isWire reports whether data starts with the fast-codec preamble.
func isWire(data []byte) bool {
	return len(data) >= 3 && data[0] == wireMagic
}

// AppendInvocation appends the wire encoding of inv to dst and returns
// the extended slice. Callers on the hot path pass a pooled buffer to
// avoid a per-message allocation; EncodeInvocation wraps it with a fresh
// one.
func AppendInvocation(dst []byte, inv Invocation) ([]byte, error) {
	RegisterValueTypes() // a fallback value may need the gob registrations
	dst = append(dst, wireMagic, wireVersion, wireInvocation)
	dst = appendString(dst, inv.Ref.Type)
	dst = appendString(dst, inv.Ref.Key)
	dst = appendString(dst, inv.Method)
	var err error
	if dst, err = appendValues(dst, inv.Args); err != nil {
		return nil, fmt.Errorf("core: encode invocation %s.%s: %w", inv.Ref, inv.Method, err)
	}
	if dst, err = appendValues(dst, inv.Init); err != nil {
		return nil, fmt.Errorf("core: encode invocation %s.%s init: %w", inv.Ref, inv.Method, err)
	}
	var flags byte
	if inv.Persist {
		flags |= 1
	}
	if inv.Stamped() {
		flags |= 2
	}
	if inv.ReadOnly {
		flags |= 4
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, inv.Trace.TraceID)
	dst = binary.AppendUvarint(dst, inv.Trace.SpanID)
	if inv.Stamped() {
		// The stamp trails every pre-stamp field so old decoders (which
		// stop after SpanID and ignore trailing bytes) stay compatible.
		dst = binary.AppendUvarint(dst, inv.ClientID)
		dst = binary.AppendUvarint(dst, inv.Seq)
	}
	codecStats.fastEncodes.Add(1)
	return dst, nil
}

// AppendResponse appends the wire encoding of resp to dst.
func AppendResponse(dst []byte, resp Response) ([]byte, error) {
	RegisterValueTypes() // a fallback value may need the gob registrations
	dst = append(dst, wireMagic, wireVersion, wireResponse)
	var err error
	if dst, err = appendValues(dst, resp.Results); err != nil {
		return nil, fmt.Errorf("core: encode response: %w", err)
	}
	dst = appendString(dst, resp.Err)
	codecStats.fastEncodes.Add(1)
	return dst, nil
}

// decodeWireInvocation parses a fast-codec invocation (after isWire).
func decodeWireInvocation(data []byte) (Invocation, error) {
	r := wireReader{b: data}
	if err := r.preamble(wireInvocation); err != nil {
		return Invocation{}, fmt.Errorf("core: decode invocation: %w", err)
	}
	var inv Invocation
	var err error
	if inv.Ref.Type, err = r.str(); err == nil {
		if inv.Ref.Key, err = r.str(); err == nil {
			inv.Method, err = r.str()
		}
	}
	if err != nil {
		return Invocation{}, fmt.Errorf("core: decode invocation: %w", err)
	}
	if inv.Args, err = r.values(); err != nil {
		return Invocation{}, fmt.Errorf("core: decode invocation %s.%s args: %w", inv.Ref, inv.Method, err)
	}
	if inv.Init, err = r.values(); err != nil {
		return Invocation{}, fmt.Errorf("core: decode invocation %s.%s init: %w", inv.Ref, inv.Method, err)
	}
	flags, err := r.u8()
	if err != nil {
		return Invocation{}, fmt.Errorf("core: decode invocation: %w", err)
	}
	inv.Persist = flags&1 != 0
	inv.ReadOnly = flags&4 != 0
	if inv.Trace.TraceID, err = r.uvarint(); err != nil {
		return Invocation{}, fmt.Errorf("core: decode invocation: %w", err)
	}
	if inv.Trace.SpanID, err = r.uvarint(); err != nil {
		return Invocation{}, fmt.Errorf("core: decode invocation: %w", err)
	}
	if flags&2 != 0 {
		if inv.ClientID, err = r.uvarint(); err != nil {
			return Invocation{}, fmt.Errorf("core: decode invocation stamp: %w", err)
		}
		if inv.Seq, err = r.uvarint(); err != nil {
			return Invocation{}, fmt.Errorf("core: decode invocation stamp: %w", err)
		}
	}
	codecStats.fastDecodes.Add(1)
	return inv, nil
}

// decodeWireResponse parses a fast-codec response (after isWire).
func decodeWireResponse(data []byte) (Response, error) {
	r := wireReader{b: data}
	if err := r.preamble(wireResponse); err != nil {
		return Response{}, fmt.Errorf("core: decode response: %w", err)
	}
	var resp Response
	var err error
	if resp.Results, err = r.values(); err != nil {
		return Response{}, fmt.Errorf("core: decode response results: %w", err)
	}
	if resp.Err, err = r.str(); err != nil {
		return Response{}, fmt.Errorf("core: decode response: %w", err)
	}
	codecStats.fastDecodes.Add(1)
	return resp, nil
}

// appendString appends a uvarint length + bytes.
func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendBytes appends a uvarint length + bytes.
func appendBytes(dst, b []byte) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(b))), b...)
}

// appendValues appends a uvarint count + tagged values.
func appendValues(dst []byte, vs []any) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	var err error
	for _, v := range vs {
		if dst, err = appendValue(dst, v, 0); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// appendValue appends one tagged value. Types outside the built-in set
// take the gob fallback, preserving the RegisterValue contract.
func appendValue(dst []byte, v any, depth int) ([]byte, error) {
	if depth > maxValueDepth {
		return nil, fmt.Errorf("core: value nesting exceeds %d levels", maxValueDepth)
	}
	switch x := v.(type) {
	case nil:
		return append(dst, tagNil), nil
	case bool:
		if x {
			return append(dst, tagTrue), nil
		}
		return append(dst, tagFalse), nil
	case int:
		return binary.AppendVarint(append(dst, tagInt), int64(x)), nil
	case int32:
		return binary.AppendVarint(append(dst, tagInt32), int64(x)), nil
	case int64:
		return binary.AppendVarint(append(dst, tagInt64), x), nil
	case uint64:
		return binary.AppendUvarint(append(dst, tagUint64), x), nil
	case float32:
		return binary.BigEndian.AppendUint32(append(dst, tagFloat32), math.Float32bits(x)), nil
	case float64:
		return binary.BigEndian.AppendUint64(append(dst, tagFloat64), math.Float64bits(x)), nil
	case string:
		return appendString(append(dst, tagString), x), nil
	case []byte:
		return appendBytes(append(dst, tagBytes), x), nil
	case []int:
		dst = binary.AppendUvarint(append(dst, tagIntSlice), uint64(len(x)))
		for _, n := range x {
			dst = binary.AppendVarint(dst, int64(n))
		}
		return dst, nil
	case []int64:
		dst = binary.AppendUvarint(append(dst, tagInt64Slice), uint64(len(x)))
		for _, n := range x {
			dst = binary.AppendVarint(dst, n)
		}
		return dst, nil
	case []float64:
		return appendFloat64Slice(append(dst, tagFloat64Slice), x), nil
	case [][]float64:
		dst = binary.AppendUvarint(append(dst, tagFloat64Mat), uint64(len(x)))
		for _, row := range x {
			dst = appendFloat64Slice(dst, row)
		}
		return dst, nil
	case []string:
		dst = binary.AppendUvarint(append(dst, tagStringSlice), uint64(len(x)))
		for _, s := range x {
			dst = appendString(dst, s)
		}
		return dst, nil
	case []any:
		dst = binary.AppendUvarint(append(dst, tagAnySlice), uint64(len(x)))
		var err error
		for _, e := range x {
			if dst, err = appendValue(dst, e, depth+1); err != nil {
				return nil, err
			}
		}
		return dst, nil
	case map[string]any:
		dst = binary.AppendUvarint(append(dst, tagMapStrAny), uint64(len(x)))
		var err error
		for k, e := range x {
			dst = appendString(dst, k)
			if dst, err = appendValue(dst, e, depth+1); err != nil {
				return nil, err
			}
		}
		return dst, nil
	case map[string]string:
		dst = binary.AppendUvarint(append(dst, tagMapStrStr), uint64(len(x)))
		for k, e := range x {
			dst = appendString(dst, k)
			dst = appendString(dst, e)
		}
		return dst, nil
	case map[string]float64:
		dst = binary.AppendUvarint(append(dst, tagMapStrF64), uint64(len(x)))
		for k, e := range x {
			dst = appendString(dst, k)
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(e))
		}
		return dst, nil
	case map[string]int64:
		dst = binary.AppendUvarint(append(dst, tagMapStrI64), uint64(len(x)))
		for k, e := range x {
			dst = appendString(dst, k)
			dst = binary.AppendVarint(dst, e)
		}
		return dst, nil
	default:
		return appendGobValue(dst, v)
	}
}

func appendFloat64Slice(dst []byte, x []float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(x)))
	for _, f := range x {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(f))
	}
	return dst
}

// appendGobValue is the per-value escape hatch: a complete single-value
// gob stream of the dynamic value, so any type accepted by RegisterValue
// keeps working without the fast codec knowing about it.
func appendGobValue(dst []byte, v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		return nil, fmt.Errorf("gob fallback for %T: %w", v, err)
	}
	codecStats.fallbackValues.Add(1)
	dst = binary.AppendUvarint(append(dst, tagGob), uint64(buf.Len()))
	return append(dst, buf.Bytes()...), nil
}

// wireReader decodes the tag format from a byte slice. Every length is
// validated against the remaining input before allocating, so corrupt
// frames fail with an error instead of a huge allocation or panic.
type wireReader struct {
	b   []byte
	off int
}

func (r *wireReader) remaining() int { return len(r.b) - r.off }

func (r *wireReader) preamble(kind byte) error {
	if r.remaining() < 3 {
		return fmt.Errorf("truncated preamble (%d bytes)", r.remaining())
	}
	magic, version, k := r.b[r.off], r.b[r.off+1], r.b[r.off+2]
	r.off += 3
	if magic != wireMagic {
		return fmt.Errorf("bad magic 0x%02x", magic)
	}
	if version != wireVersion {
		return fmt.Errorf("unsupported codec version %d (have %d)", version, wireVersion)
	}
	if k != kind {
		return fmt.Errorf("message kind %q, want %q", k, kind)
	}
	return nil
}

func (r *wireReader) u8() (byte, error) {
	if r.remaining() < 1 {
		return 0, fmt.Errorf("truncated at offset %d", r.off)
	}
	b := r.b[r.off]
	r.off++
	return b, nil
}

func (r *wireReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("bad uvarint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *wireReader) varint() (int64, error) {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("bad varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

// count reads a uvarint element count and validates it against the
// remaining bytes, each element occupying at least minBytes. The division
// form avoids overflow on hostile counts.
func (r *wireReader) count(minBytes int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if v > uint64(r.remaining())/uint64(minBytes) {
		return 0, fmt.Errorf("count %d exceeds remaining %d bytes", v, r.remaining())
	}
	return int(v), nil
}

func (r *wireReader) take(n int) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, fmt.Errorf("length %d exceeds remaining %d bytes", n, r.remaining())
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b, nil
}

// str reads a length-prefixed string. The conversion copies, so decoded
// messages never alias the (possibly pooled) input buffer.
func (r *wireReader) str() (string, error) {
	n, err := r.count(1)
	if err != nil {
		return "", err
	}
	b, err := r.take(n)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// bytes reads a length-prefixed byte slice into a fresh copy (nil when
// empty), so the decoded message outlives a recycled input buffer.
func (r *wireReader) bytes() ([]byte, error) {
	n, err := r.count(1)
	if err != nil {
		return nil, err
	}
	b, err := r.take(n)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), b...), nil
}

func (r *wireReader) f64() (float64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.BigEndian.Uint64(b)), nil
}

// values reads a value list. Zero-length lists decode as nil.
func (r *wireReader) values() ([]any, error) {
	n, err := r.count(1)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]any, n)
	for i := range out {
		if out[i], err = r.value(0); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// value reads one tagged value, reproducing the concrete types gob would
// have delivered so callers' type switches keep working unchanged.
func (r *wireReader) value(depth int) (any, error) {
	if depth > maxValueDepth {
		return nil, fmt.Errorf("value nesting exceeds %d levels", maxValueDepth)
	}
	tag, err := r.u8()
	if err != nil {
		return nil, err
	}
	switch tag {
	case tagNil:
		return nil, nil
	case tagFalse:
		return false, nil
	case tagTrue:
		return true, nil
	case tagInt:
		v, err := r.varint()
		return int(v), err
	case tagInt32:
		v, err := r.varint()
		return int32(v), err
	case tagInt64:
		return r.varint()
	case tagUint64:
		return r.uvarint()
	case tagFloat32:
		b, err := r.take(4)
		if err != nil {
			return nil, err
		}
		return math.Float32frombits(binary.BigEndian.Uint32(b)), nil
	case tagFloat64:
		return r.f64()
	case tagString:
		return r.str()
	case tagBytes:
		return r.bytes()
	case tagIntSlice:
		n, err := r.count(1)
		if err != nil {
			return nil, err
		}
		out := make([]int, n)
		for i := range out {
			v, err := r.varint()
			if err != nil {
				return nil, err
			}
			out[i] = int(v)
		}
		return out, nil
	case tagInt64Slice:
		n, err := r.count(1)
		if err != nil {
			return nil, err
		}
		out := make([]int64, n)
		for i := range out {
			if out[i], err = r.varint(); err != nil {
				return nil, err
			}
		}
		return out, nil
	case tagFloat64Slice:
		return r.float64Slice()
	case tagFloat64Mat:
		n, err := r.count(1)
		if err != nil {
			return nil, err
		}
		out := make([][]float64, n)
		for i := range out {
			if out[i], err = r.float64Slice(); err != nil {
				return nil, err
			}
		}
		return out, nil
	case tagStringSlice:
		n, err := r.count(1)
		if err != nil {
			return nil, err
		}
		out := make([]string, n)
		for i := range out {
			if out[i], err = r.str(); err != nil {
				return nil, err
			}
		}
		return out, nil
	case tagAnySlice:
		n, err := r.count(1)
		if err != nil {
			return nil, err
		}
		out := make([]any, n)
		for i := range out {
			if out[i], err = r.value(depth + 1); err != nil {
				return nil, err
			}
		}
		return out, nil
	case tagMapStrAny:
		n, err := r.count(2)
		if err != nil {
			return nil, err
		}
		out := make(map[string]any, n)
		for i := 0; i < n; i++ {
			k, err := r.str()
			if err != nil {
				return nil, err
			}
			if out[k], err = r.value(depth + 1); err != nil {
				return nil, err
			}
		}
		return out, nil
	case tagMapStrStr:
		n, err := r.count(2)
		if err != nil {
			return nil, err
		}
		out := make(map[string]string, n)
		for i := 0; i < n; i++ {
			k, err := r.str()
			if err != nil {
				return nil, err
			}
			if out[k], err = r.str(); err != nil {
				return nil, err
			}
		}
		return out, nil
	case tagMapStrF64:
		n, err := r.count(9)
		if err != nil {
			return nil, err
		}
		out := make(map[string]float64, n)
		for i := 0; i < n; i++ {
			k, err := r.str()
			if err != nil {
				return nil, err
			}
			if out[k], err = r.f64(); err != nil {
				return nil, err
			}
		}
		return out, nil
	case tagMapStrI64:
		n, err := r.count(2)
		if err != nil {
			return nil, err
		}
		out := make(map[string]int64, n)
		for i := 0; i < n; i++ {
			k, err := r.str()
			if err != nil {
				return nil, err
			}
			if out[k], err = r.varint(); err != nil {
				return nil, err
			}
		}
		return out, nil
	case tagGob:
		n, err := r.count(1)
		if err != nil {
			return nil, err
		}
		b, err := r.take(n)
		if err != nil {
			return nil, err
		}
		var v any
		if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&v); err != nil {
			return nil, fmt.Errorf("gob fallback: %w", err)
		}
		return v, nil
	default:
		return nil, fmt.Errorf("unknown value tag %d at offset %d", tag, r.off-1)
	}
}

func (r *wireReader) float64Slice() ([]float64, error) {
	n, err := r.count(8)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		if out[i], err = r.f64(); err != nil {
			return nil, err
		}
	}
	return out, nil
}
