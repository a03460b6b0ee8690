// Package wire is the compact binary framing for CST scheduling traffic:
// the request/answer protocol cstserved speaks on its -wire-addr TCP
// listener, built for persistent pipelined connections and an
// allocation-free hot path.
//
// The design reuses the packing idiom of internal/ctrl's fixed-width
// control words — every field has one unambiguous binary form — but packs
// with varints instead of fixed uint32s because scheduling requests are
// dominated by tiny integers (PE indices, request ids): a typical request
// frame is 9 bytes against ~60 for its HTTP/JSON equivalent, before HTTP
// headers.
//
// Stream layout:
//
//	hello     := "CSTW" version:uint8           (client → server)
//	accept    := "CSTW" version:uint8           (server → client)
//	frame     := length:uvarint payload
//	payload   := type:uint8 body
//	request   := id:uvarint src:uvarint dst:uvarint deadline_ms:uvarint
//	             tracectx
//	response  := id:uvarint status:uvarint shard:varint arrival:varint
//	             dispatched:varint finished:varint latency_rounds:varint
//	             trace:uvarint errlen:uvarint err:bytes
//	setreq    := id:uvarint n:uvarint pairs tracectx
//	setresp   := id:uvarint status:uvarint rounds:uvarint bound:uvarint
//	             width:uvarint batches:uvarint residual:uvarint
//	             units:uvarint strategy:uint8 trace:uvarint
//	             errlen:uvarint err:bytes
//	deltareq  := id:uvarint session:uvarint deadline_ms:uvarint
//	             pairs(remove) pairs(add) tracectx
//	deltaresp := id:uvarint session:uvarint status:uvarint rounds:uvarint
//	             width:uvarint size:uvarint fallback:uint8 trace:uvarint
//	             errlen:uvarint err:bytes
//	pairs     := count:uvarint (src:uvarint dst:uvarint)*
//	tracectx  := trace:uvarint span:uvarint flags:uint8
//
// There is one protocol version. The server answers every hello with
// Version; a client that offered anything else reads that answer and then
// a closed connection, and a client that reads any other answer fails
// with ErrVersion.
//
// Pair frames schedule one communication against a live shard. Set frames
// plan a whole, possibly non-well-nested communication set with the
// hybrid planner; MaxFrameBytes doubles as the set size bound, since a
// set must pack into one frame. Delta frames drive session-scoped
// incremental scheduling (padr.Engine.Apply): a client opens a logical
// session by sending its first delta against an empty set, then mutates
// it in place with remove/add pairs, and the server keeps a warm engine
// per session. fallback=1 flags a 200 served by a from-scratch run rather
// than an incremental apply; size is the session set's size afterwards.
// Every status reuses the HTTP mapping (200, 400, 429, 500, 501, 503,
// 504).
//
// Every request carries the span-trace context block so one request's
// span tree survives the protocol hop (see internal/obs); flags bit 0 =
// sampled. An untraced request sends three zero bytes: the block is never
// optional, so parsing stays deterministic and the unsampled hot path
// stays allocation-free. Every response carries the server-assigned trace
// id (zero when the request was not sampled).
//
// The id correlates pipelined requests with their answers: responses may
// return out of submission order (conflict-deferred waves and deadline
// expiries reorder), so clients must match on id, never on arrival order.
//
// Every decode error is one of the typed sentinels below (wrapped with
// detail); decoders never panic on junk and never allocate proportionally
// to a length claim — a frame announcing more than MaxFrameBytes is
// rejected before any buffer grows.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"time"
)

// Protocol constants.
const (
	// Magic opens both handshake directions.
	Magic = "CSTW"
	// Version is the one protocol revision this build speaks. It stays at
	// 4, the number of the first revision with this exact layout, so
	// peers that speak the same bytes keep connecting.
	Version = 4
	// VersionDelta is the minimum version a delta client can require; it
	// equals Version, which speaks every frame type.
	VersionDelta = Version
	// MaxFrameBytes bounds a frame payload. Requests are ~9 bytes and
	// responses ~20 plus a short error string; anything larger is a
	// corrupt or hostile stream.
	MaxFrameBytes = 4096
	// HandshakeBytes is the size of each handshake message.
	HandshakeBytes = len(Magic) + 1
)

// Frame types.
const (
	// TypeRequest frames a scheduling request (client → server).
	TypeRequest = 0x01
	// TypeResponse frames a terminal answer (server → client).
	TypeResponse = 0x02
	// TypeSetRequest frames a whole-set scheduling request.
	TypeSetRequest = 0x03
	// TypeSetResponse frames a whole-set answer.
	TypeSetResponse = 0x04
	// TypeDeltaRequest frames a session-scoped delta request.
	TypeDeltaRequest = 0x05
	// TypeDeltaResponse frames a delta answer.
	TypeDeltaResponse = 0x06
)

// Trace-block flag bits.
const (
	// FlagSampled marks the request's trace as sampled: the server must
	// record spans for it regardless of its own head-sampling rate.
	FlagSampled = 0x01
)

// Strategy codes a SetResponse carries (matching internal/hybrid's
// strategy names without importing it — wire stays dependency-free).
const (
	// StrategyNone is the zero strategy (non-200 answers).
	StrategyNone = 0
	// StrategyPeel is carried by no plan: the planner colors every set.
	// The code stays reserved, and servebench names it.
	StrategyPeel = 1
	// StrategyColoring is a coloring of the whole set over directed tree
	// links.
	StrategyColoring = 2
)

// Typed decode errors. Decoders wrap these with detail; match with
// errors.Is.
var (
	// ErrBadMagic rejects a handshake that does not open with Magic.
	ErrBadMagic = errors.New("wire: bad magic")
	// ErrVersion rejects a handshake carrying any version but Version.
	ErrVersion = errors.New("wire: unsupported protocol version")
	// ErrFrameTooLarge rejects a length prefix beyond MaxFrameBytes
	// before any buffer is grown for it.
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrameBytes")
	// ErrTruncated reports a frame or field cut short.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrBadFrame reports structurally invalid bytes: junk varints,
	// out-of-range fields, trailing garbage.
	ErrBadFrame = errors.New("wire: malformed frame")
	// ErrUnknownType reports an unrecognized frame type byte.
	ErrUnknownType = errors.New("wire: unknown frame type")
)

// Request is one scheduling request: schedule the communication Src → Dst,
// optionally bounded by DeadlineMS milliseconds of wall-clock time. ID
// correlates the eventual Response on a pipelined connection.
type Request struct {
	ID         uint64
	Src, Dst   int
	DeadlineMS int64
	// Trace/Span/Flags are the propagated span-trace context (zero =
	// untraced). Flags bit 0 (FlagSampled) forces server-side sampling so
	// a client-initiated trace stays connected across the hop.
	Trace uint64
	Span  uint64
	Flags uint8
}

// Deadline converts DeadlineMS to a duration (0 means the server default).
func (r *Request) Deadline() time.Duration {
	return time.Duration(r.DeadlineMS) * time.Millisecond
}

// Response is the terminal answer for request ID. Status carries the same
// HTTP mapping as serve.Result (200 scheduled, 400 bad endpoints, 429
// backpressure, 500 quarantined, 503 draining, 504 deadline); the round
// fields are meaningful only for status 200. Err is empty on success.
type Response struct {
	ID            uint64
	Status        int
	Shard         int
	Arrival       int
	Dispatched    int
	Finished      int
	LatencyRounds int
	Err           string
	// Trace is the server-assigned trace id (zero when the request was
	// not sampled) — the handle for /trace/flight lookups.
	Trace uint64
}

// SetRequest is one whole-set scheduling request: plan the
// communication set Pairs over an N-PE fabric with the hybrid scheduler.
// The set may mix orientations and cross arbitrarily; validation happens
// server-side so a malformed set costs a status answer, not a dead
// connection.
type SetRequest struct {
	ID uint64
	// N is the PE count the pairs index into.
	N int
	// Pairs are the (src, dst) communications.
	Pairs [][2]int
	// Trace/Span/Flags are the propagated span-trace context.
	Trace uint64
	Span  uint64
	Flags uint8
}

// SetResponse is the terminal answer for set request ID. Status reuses the
// HTTP mapping (200 planned, 400 invalid set, 501 planner disabled, 503
// draining); the plan fields are meaningful only for status 200. Units is
// the composite power bill, Strategy one of the Strategy* codes; Batches
// and Residual carry the plan's fields of those names (see
// serve.SetResult).
type SetResponse struct {
	ID       uint64
	Status   int
	Rounds   int
	Bound    int
	Width    int
	Batches  int
	Residual int
	Units    int64
	Strategy uint8
	Err      string
	// Trace is the server-assigned trace id (zero when unsampled).
	Trace uint64
}

// DeltaRequest is one session-scoped incremental scheduling request:
// mutate session Session's communication set by removing
// the Remove pairs and adding the Add pairs, then re-run the schedule
// incrementally. A first delta against an unknown session id opens it with
// an empty set.
type DeltaRequest struct {
	ID         uint64
	Session    uint64
	DeadlineMS int64
	// Remove/Add are the (src, dst) mutations; removes apply first.
	Remove [][2]int
	Add    [][2]int
	// Trace/Span/Flags are the propagated span-trace context.
	Trace uint64
	Span  uint64
	Flags uint8
}

// Deadline converts DeadlineMS to a duration (0 means the server default).
func (r *DeltaRequest) Deadline() time.Duration {
	return time.Duration(r.DeadlineMS) * time.Millisecond
}

// DeltaResponse is the terminal answer for delta request ID. Status reuses
// the HTTP mapping (200 applied, 400 invalid delta, 429 session table
// full, 500 failed, 503 draining, 504 deadline); Rounds/Width/Size are
// meaningful only for status 200. Fallback flags a success served by a
// from-scratch fallback run instead of an incremental apply.
type DeltaResponse struct {
	ID      uint64
	Session uint64
	Status  int
	Rounds  int
	Width   int
	// Size is the session's set size after the delta.
	Size     int
	Fallback bool
	Err      string
	// Trace is the server-assigned trace id (zero when unsampled).
	Trace uint64
}

// The Append*V/Parse*V codecs ignore their version parameter: every frame
// has the one layout in the package comment. The parameter stays so that
// callers built against the multi-version codecs keep compiling.

// AppendRequestV appends a complete request frame (length prefix
// included) to buf. It never allocates when buf has capacity. Negative
// Src/Dst are encoded as large uvarints and rejected by the receiver's
// range check. version is unused.
func AppendRequestV(buf []byte, r *Request, version uint8) []byte {
	var scratch [2 + 6*binary.MaxVarintLen64]byte
	body := append(scratch[:0], TypeRequest)
	body = binary.AppendUvarint(body, r.ID)
	body = binary.AppendUvarint(body, uint64(uint(r.Src)))
	body = binary.AppendUvarint(body, uint64(uint(r.Dst)))
	body = binary.AppendUvarint(body, uint64(r.DeadlineMS))
	body = appendTraceCtx(body, r.Trace, r.Span, r.Flags)
	buf = binary.AppendUvarint(buf, uint64(len(body)))
	return append(buf, body...)
}

// ParseRequestV decodes a request body (as returned by DecodeFrame for
// TypeRequest) into req without allocating. The body must be exactly one
// request: trailing bytes are ErrBadFrame. version is unused.
func ParseRequestV(body []byte, req *Request, version uint8) error {
	id, rest, err := uvarintField(body, "id")
	if err != nil {
		return err
	}
	src, rest, err := uvarintField(rest, "src")
	if err != nil {
		return err
	}
	dst, rest, err := uvarintField(rest, "dst")
	if err != nil {
		return err
	}
	dl, rest, err := uvarintField(rest, "deadline_ms")
	if err != nil {
		return err
	}
	trace, span, flags, err := traceCtx(rest)
	if err != nil {
		return err
	}
	if src > math.MaxInt32 || dst > math.MaxInt32 {
		return fmt.Errorf("%w: endpoint out of range", ErrBadFrame)
	}
	if dl > math.MaxInt64/uint64(time.Millisecond) {
		return fmt.Errorf("%w: deadline out of range", ErrBadFrame)
	}
	*req = Request{ID: id, Src: int(src), Dst: int(dst), DeadlineMS: int64(dl),
		Trace: trace, Span: span, Flags: flags}
	return nil
}

// AppendResponseV appends a complete response frame to buf. An Err longer
// than half the frame budget is truncated rather than rejected — the
// status code already carries the outcome. version is unused.
func AppendResponseV(buf []byte, r *Response, version uint8) []byte {
	var scratch [1 + 8*binary.MaxVarintLen64]byte
	body := append(scratch[:0], TypeResponse)
	body = binary.AppendUvarint(body, r.ID)
	body = binary.AppendUvarint(body, uint64(uint(r.Status)))
	body = binary.AppendVarint(body, int64(r.Shard))
	body = binary.AppendVarint(body, int64(r.Arrival))
	body = binary.AppendVarint(body, int64(r.Dispatched))
	body = binary.AppendVarint(body, int64(r.Finished))
	body = binary.AppendVarint(body, int64(r.LatencyRounds))
	body = binary.AppendUvarint(body, r.Trace)
	return appendErrTail(buf, body, r.Err)
}

// ParseResponseV decodes a response body (as returned by DecodeFrame for
// TypeResponse) into resp. It allocates only for a non-empty error
// string. version is unused.
func ParseResponseV(body []byte, resp *Response, version uint8) error {
	id, rest, err := uvarintField(body, "id")
	if err != nil {
		return err
	}
	status, rest, err := uvarintField(rest, "status")
	if err != nil {
		return err
	}
	if status > math.MaxInt32 {
		return fmt.Errorf("%w: status out of range", ErrBadFrame)
	}
	var fields [5]int64
	for i, name := range [...]string{"shard", "arrival", "dispatched", "finished", "latency_rounds"} {
		fields[i], rest, err = varintField(rest, name)
		if err != nil {
			return err
		}
		if fields[i] > math.MaxInt32 || fields[i] < math.MinInt32 {
			return fmt.Errorf("%w: field %s out of range", ErrBadFrame, name)
		}
	}
	trace, rest, err := uvarintField(rest, "trace")
	if err != nil {
		return err
	}
	errStr, err := errTail(rest)
	if err != nil {
		return err
	}
	*resp = Response{ID: id, Status: int(status), Shard: int(fields[0]),
		Arrival: int(fields[1]), Dispatched: int(fields[2]), Finished: int(fields[3]),
		LatencyRounds: int(fields[4]), Err: errStr, Trace: trace}
	return nil
}

// AppendSetRequestV appends a complete set-request frame to buf, or an
// error when the set cannot fit MaxFrameBytes — the frame bound is the
// protocol's set size limit, checked before any bytes are emitted.
// version is unused.
func AppendSetRequestV(buf []byte, r *SetRequest, version uint8) ([]byte, error) {
	body := make([]byte, 0, 2+(5+2*len(r.Pairs))*binary.MaxVarintLen64)
	body = append(body, TypeSetRequest)
	body = binary.AppendUvarint(body, r.ID)
	body = binary.AppendUvarint(body, uint64(uint(r.N)))
	body = appendPairs(body, r.Pairs)
	body = appendTraceCtx(body, r.Trace, r.Span, r.Flags)
	return appendSized(buf, body, "set request")
}

// ParseSetRequestV decodes a set-request body (as returned by DecodeFrame
// for TypeSetRequest) into req. The pair slice is reused when it has
// capacity, and the claimed pair count is checked against the remaining
// bytes before any allocation sized by it. version is unused.
func ParseSetRequestV(body []byte, req *SetRequest, version uint8) error {
	id, rest, err := uvarintField(body, "id")
	if err != nil {
		return err
	}
	n, rest, err := uvarintField(rest, "n")
	if err != nil {
		return err
	}
	if n > math.MaxInt32 {
		return fmt.Errorf("%w: fabric size out of range", ErrBadFrame)
	}
	if req.Pairs, rest, err = pairList(rest, req.Pairs, "count"); err != nil {
		return err
	}
	if req.Trace, req.Span, req.Flags, err = traceCtx(rest); err != nil {
		return err
	}
	req.ID = id
	req.N = int(n)
	return nil
}

// AppendSetResponseV appends a complete set-response frame to buf.
// Oversized error strings are truncated like AppendResponseV's. version
// is unused.
func AppendSetResponseV(buf []byte, r *SetResponse, version uint8) []byte {
	var scratch [2 + 9*binary.MaxVarintLen64]byte
	body := append(scratch[:0], TypeSetResponse)
	body = binary.AppendUvarint(body, r.ID)
	body = binary.AppendUvarint(body, uint64(uint(r.Status)))
	body = binary.AppendUvarint(body, uint64(uint(r.Rounds)))
	body = binary.AppendUvarint(body, uint64(uint(r.Bound)))
	body = binary.AppendUvarint(body, uint64(uint(r.Width)))
	body = binary.AppendUvarint(body, uint64(uint(r.Batches)))
	body = binary.AppendUvarint(body, uint64(uint(r.Residual)))
	body = binary.AppendUvarint(body, uint64(r.Units))
	body = append(body, r.Strategy)
	body = binary.AppendUvarint(body, r.Trace)
	return appendErrTail(buf, body, r.Err)
}

// ParseSetResponseV decodes a set-response body (as returned by
// DecodeFrame for TypeSetResponse) into resp. It allocates only for a
// non-empty error string. version is unused.
func ParseSetResponseV(body []byte, resp *SetResponse, version uint8) error {
	id, rest, err := uvarintField(body, "id")
	if err != nil {
		return err
	}
	var fields [6]uint64
	for i, name := range [...]string{"status", "rounds", "bound", "width", "batches", "residual"} {
		fields[i], rest, err = uvarintField(rest, name)
		if err != nil {
			return err
		}
		if fields[i] > math.MaxInt32 {
			return fmt.Errorf("%w: field %s out of range", ErrBadFrame, name)
		}
	}
	units, rest, err := uvarintField(rest, "units")
	if err != nil {
		return err
	}
	if units > math.MaxInt64 {
		return fmt.Errorf("%w: units out of range", ErrBadFrame)
	}
	if len(rest) == 0 {
		return fmt.Errorf("%w: field strategy", ErrTruncated)
	}
	strategy := rest[0]
	if strategy > StrategyColoring {
		return fmt.Errorf("%w: strategy code %d", ErrBadFrame, strategy)
	}
	trace, rest, err := uvarintField(rest[1:], "trace")
	if err != nil {
		return err
	}
	errStr, err := errTail(rest)
	if err != nil {
		return err
	}
	*resp = SetResponse{ID: id, Status: int(fields[0]), Rounds: int(fields[1]),
		Bound: int(fields[2]), Width: int(fields[3]), Batches: int(fields[4]),
		Residual: int(fields[5]), Units: int64(units), Strategy: strategy,
		Err: errStr, Trace: trace}
	return nil
}

// AppendDeltaRequest appends a complete delta-request frame to buf, or an
// error when the mutation list cannot fit MaxFrameBytes.
func AppendDeltaRequest(buf []byte, r *DeltaRequest) ([]byte, error) {
	body := make([]byte, 0, 6+(7+2*(len(r.Remove)+len(r.Add)))*binary.MaxVarintLen64)
	body = append(body, TypeDeltaRequest)
	body = binary.AppendUvarint(body, r.ID)
	body = binary.AppendUvarint(body, r.Session)
	body = binary.AppendUvarint(body, uint64(r.DeadlineMS))
	body = appendPairs(body, r.Remove)
	body = appendPairs(body, r.Add)
	body = appendTraceCtx(body, r.Trace, r.Span, r.Flags)
	return appendSized(buf, body, "delta request")
}

// ParseDeltaRequest decodes a delta-request body (as returned by
// DecodeFrame for TypeDeltaRequest) into req. The pair slices are reused
// when they have capacity; claimed counts are checked against the
// remaining bytes before any allocation sized by them.
func ParseDeltaRequest(body []byte, req *DeltaRequest) error {
	id, rest, err := uvarintField(body, "id")
	if err != nil {
		return err
	}
	session, rest, err := uvarintField(rest, "session")
	if err != nil {
		return err
	}
	dl, rest, err := uvarintField(rest, "deadline_ms")
	if err != nil {
		return err
	}
	if dl > math.MaxInt64/uint64(time.Millisecond) {
		return fmt.Errorf("%w: deadline out of range", ErrBadFrame)
	}
	if req.Remove, rest, err = pairList(rest, req.Remove, "nremove"); err != nil {
		return err
	}
	if req.Add, rest, err = pairList(rest, req.Add, "nadd"); err != nil {
		return err
	}
	if req.Trace, req.Span, req.Flags, err = traceCtx(rest); err != nil {
		return err
	}
	req.ID = id
	req.Session = session
	req.DeadlineMS = int64(dl)
	return nil
}

// AppendDeltaResponse appends a complete delta-response frame to buf.
// Oversized error strings are truncated like AppendResponseV's.
func AppendDeltaResponse(buf []byte, r *DeltaResponse) []byte {
	var scratch [2 + 8*binary.MaxVarintLen64]byte
	body := append(scratch[:0], TypeDeltaResponse)
	body = binary.AppendUvarint(body, r.ID)
	body = binary.AppendUvarint(body, r.Session)
	body = binary.AppendUvarint(body, uint64(uint(r.Status)))
	body = binary.AppendUvarint(body, uint64(uint(r.Rounds)))
	body = binary.AppendUvarint(body, uint64(uint(r.Width)))
	body = binary.AppendUvarint(body, uint64(uint(r.Size)))
	fallback := byte(0)
	if r.Fallback {
		fallback = 1
	}
	body = append(body, fallback)
	body = binary.AppendUvarint(body, r.Trace)
	return appendErrTail(buf, body, r.Err)
}

// ParseDeltaResponse decodes a delta-response body (as returned by
// DecodeFrame for TypeDeltaResponse) into resp. It allocates only for a
// non-empty error string.
func ParseDeltaResponse(body []byte, resp *DeltaResponse) error {
	id, rest, err := uvarintField(body, "id")
	if err != nil {
		return err
	}
	session, rest, err := uvarintField(rest, "session")
	if err != nil {
		return err
	}
	var fields [4]uint64
	for i, name := range [...]string{"status", "rounds", "width", "size"} {
		fields[i], rest, err = uvarintField(rest, name)
		if err != nil {
			return err
		}
		if fields[i] > math.MaxInt32 {
			return fmt.Errorf("%w: field %s out of range", ErrBadFrame, name)
		}
	}
	if len(rest) == 0 {
		return fmt.Errorf("%w: field fallback", ErrTruncated)
	}
	fb := rest[0]
	if fb > 1 {
		return fmt.Errorf("%w: fallback flag %d", ErrBadFrame, fb)
	}
	trace, rest, err := uvarintField(rest[1:], "trace")
	if err != nil {
		return err
	}
	errStr, err := errTail(rest)
	if err != nil {
		return err
	}
	*resp = DeltaResponse{ID: id, Session: session, Status: int(fields[0]),
		Rounds: int(fields[1]), Width: int(fields[2]), Size: int(fields[3]),
		Fallback: fb == 1, Err: errStr, Trace: trace}
	return nil
}

// appendPairs appends a counted (src, dst) pair list.
func appendPairs(b []byte, pairs [][2]int) []byte {
	b = binary.AppendUvarint(b, uint64(len(pairs)))
	for _, p := range pairs {
		b = binary.AppendUvarint(b, uint64(uint(p[0])))
		b = binary.AppendUvarint(b, uint64(uint(p[1])))
	}
	return b
}

// pairList reads a counted (src, dst) pair list, reusing into's capacity.
func pairList(b []byte, into [][2]int, name string) ([][2]int, []byte, error) {
	count, rest, err := uvarintField(b, name)
	if err != nil {
		return into, nil, err
	}
	if count > uint64(len(rest))/2 {
		return into, nil, fmt.Errorf("%w: %d pairs claimed with %d bytes left", ErrBadFrame, count, len(rest))
	}
	if cap(into) < int(count) {
		into = make([][2]int, count)
	}
	into = into[:count]
	for i := range into {
		var src, dst uint64
		src, rest, err = uvarintField(rest, "src")
		if err != nil {
			return into, nil, err
		}
		dst, rest, err = uvarintField(rest, "dst")
		if err != nil {
			return into, nil, err
		}
		if src > math.MaxInt32 || dst > math.MaxInt32 {
			return into, nil, fmt.Errorf("%w: endpoint out of range", ErrBadFrame)
		}
		into[i] = [2]int{int(src), int(dst)}
	}
	return into, rest, nil
}

// appendTraceCtx appends the trace block that ends every request body.
func appendTraceCtx(b []byte, trace, span uint64, flags uint8) []byte {
	b = binary.AppendUvarint(b, trace)
	b = binary.AppendUvarint(b, span)
	return append(b, flags)
}

// traceCtx reads the trace block that ends every request body; any byte
// after it is ErrBadFrame.
func traceCtx(b []byte) (trace, span uint64, flags uint8, err error) {
	if trace, b, err = uvarintField(b, "trace"); err != nil {
		return 0, 0, 0, err
	}
	if span, b, err = uvarintField(b, "span"); err != nil {
		return 0, 0, 0, err
	}
	if len(b) == 0 {
		return 0, 0, 0, fmt.Errorf("%w: field flags", ErrTruncated)
	}
	if len(b) > 1 {
		return 0, 0, 0, fmt.Errorf("%w: %d trailing bytes after request", ErrBadFrame, len(b)-1)
	}
	return trace, span, b[0], nil
}

// appendSized length-prefixes a variable-size body onto buf, refusing a
// body beyond MaxFrameBytes before emitting any bytes.
func appendSized(buf, body []byte, what string) ([]byte, error) {
	if len(body) > MaxFrameBytes {
		return buf, fmt.Errorf("%w: %s needs %d bytes", ErrFrameTooLarge, what, len(body))
	}
	buf = binary.AppendUvarint(buf, uint64(len(body)))
	return append(buf, body...), nil
}

// appendErrTail completes a response frame: body (type byte through trace
// id), then errlen and the error text, truncated to half the frame budget
// so the frame always fits.
func appendErrTail(buf, body []byte, errStr string) []byte {
	if len(errStr) > MaxFrameBytes/2 {
		errStr = errStr[:MaxFrameBytes/2]
	}
	var lenBuf [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(lenBuf[:], uint64(len(errStr)))
	buf = binary.AppendUvarint(buf, uint64(len(body)+k+len(errStr)))
	buf = append(buf, body...)
	buf = append(buf, lenBuf[:k]...)
	return append(buf, errStr...)
}

// errTail reads the errlen and error text that end every response body.
func errTail(b []byte) (string, error) {
	errLen, rest, err := uvarintField(b, "errlen")
	if err != nil {
		return "", err
	}
	if uint64(len(rest)) != errLen {
		return "", fmt.Errorf("%w: errlen %d with %d bytes left", ErrBadFrame, errLen, len(rest))
	}
	return string(rest), nil
}

// uvarintField reads one uvarint from b, rejecting junk encodings.
func uvarintField(b []byte, name string) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: field %s", badVarintErr(b, n), name)
	}
	return v, b[n:], nil
}

// varintField reads one zigzag varint from b, rejecting junk encodings.
func varintField(b []byte, name string) (int64, []byte, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: field %s", badVarintErr(b, n), name)
	}
	return v, b[n:], nil
}

// badVarintErr distinguishes a short buffer (truncated) from an
// overlong/overflowing varint (malformed).
func badVarintErr(b []byte, n int) error {
	if n == 0 && len(b) < binary.MaxVarintLen64 {
		return ErrTruncated
	}
	return ErrBadFrame
}

// DecodeFrame parses one length-prefixed frame from the front of b,
// returning the frame type, its body (aliasing b, no copy) and the total
// bytes consumed. Incomplete input returns ErrTruncated; an oversized
// length claim returns ErrFrameTooLarge without consuming or allocating.
func DecodeFrame(b []byte) (typ byte, body []byte, n int, err error) {
	length, ln := binary.Uvarint(b)
	if ln == 0 {
		return 0, nil, 0, fmt.Errorf("%w: length prefix", ErrTruncated)
	}
	if ln < 0 {
		return 0, nil, 0, fmt.Errorf("%w: overflowing length prefix", ErrFrameTooLarge)
	}
	if err := checkLength(length); err != nil {
		return 0, nil, 0, err
	}
	if uint64(len(b)-ln) < length {
		return 0, nil, 0, fmt.Errorf("%w: payload wants %d bytes, have %d", ErrTruncated, length, len(b)-ln)
	}
	typ, body, err = splitPayload(b[ln : ln+int(length)])
	if err != nil {
		return 0, nil, 0, err
	}
	return typ, body, ln + int(length), nil
}

// checkLength vets a length prefix: an oversized claim is refused before
// any buffer grows for it, and an empty payload has no type byte.
func checkLength(length uint64) error {
	if length > MaxFrameBytes {
		return fmt.Errorf("%w: claimed %d bytes", ErrFrameTooLarge, length)
	}
	if length == 0 {
		return fmt.Errorf("%w: empty payload", ErrBadFrame)
	}
	return nil
}

// splitPayload splits a non-empty payload into its type byte and body.
func splitPayload(payload []byte) (byte, []byte, error) {
	if payload[0] < TypeRequest || payload[0] > TypeDeltaResponse {
		return 0, nil, fmt.Errorf("%w: 0x%02x", ErrUnknownType, payload[0])
	}
	return payload[0], payload[1:], nil
}

// AppendHello appends a handshake message carrying version.
func AppendHello(buf []byte, version uint8) []byte {
	return append(append(buf, Magic...), version)
}

// ParseHello validates a handshake message and returns the version it
// carries. Version 0 is ErrVersion: no revision was ever numbered 0.
func ParseHello(b []byte) (uint8, error) {
	if len(b) < HandshakeBytes {
		return 0, fmt.Errorf("%w: handshake wants %d bytes, have %d", ErrTruncated, HandshakeBytes, len(b))
	}
	if string(b[:len(Magic)]) != Magic {
		return 0, fmt.Errorf("%w: %q", ErrBadMagic, b[:len(Magic)])
	}
	v := b[len(Magic)]
	if v == 0 {
		return 0, fmt.Errorf("%w: 0", ErrVersion)
	}
	return v, nil
}

// Reader reads frames off a stream into a reusable buffer: steady-state
// Next calls allocate nothing. It is not safe for concurrent use.
type Reader struct {
	br  *bufio.Reader
	buf []byte
}

// NewReader wraps r for frame reading.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 4096)}
}

// Reset rearms the reader onto a new stream, keeping its buffers.
func (r *Reader) Reset(src io.Reader) { r.br.Reset(src) }

// Next reads one frame and returns its type and body. The body aliases the
// reader's internal buffer and is valid only until the next call. io.EOF
// surfaces as-is at a clean frame boundary; a partial frame is
// io.ErrUnexpectedEOF.
func (r *Reader) Next() (typ byte, body []byte, err error) {
	length, err := binary.ReadUvarint(r.br)
	if err != nil {
		return 0, nil, err
	}
	if err := checkLength(length); err != nil {
		return 0, nil, err
	}
	if cap(r.buf) < int(length) {
		r.buf = make([]byte, length)
	}
	payload := r.buf[:length]
	if _, err := io.ReadFull(r.br, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return splitPayload(payload)
}

// ClientConn is a client side of the wire protocol: one persistent
// connection with pipelined sends. It is not safe for concurrent use; run
// one ClientConn per goroutine.
type ClientConn struct {
	conn    net.Conn
	r       *Reader
	bw      *bufio.Writer
	scratch []byte
}

// Dial connects, performs the handshake and returns a ready connection.
func Dial(addr string, timeout time.Duration) (*ClientConn, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	c, err := NewClientConn(conn, timeout)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// NewClientConn performs the client handshake over an established
// connection (handy for tests over in-memory pipes): it offers Version and
// fails with ErrVersion unless the server answers with Version too. The
// timeout bounds the handshake only.
func NewClientConn(conn net.Conn, timeout time.Duration) (*ClientConn, error) {
	c := &ClientConn{
		conn: conn,
		r:    NewReader(conn),
		bw:   bufio.NewWriterSize(conn, 4096),
	}
	if timeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(timeout))
		defer func() { _ = conn.SetDeadline(time.Time{}) }()
	}
	c.scratch = AppendHello(c.scratch[:0], Version)
	if _, err := conn.Write(c.scratch); err != nil {
		return nil, fmt.Errorf("wire: handshake write: %w", err)
	}
	var accept [HandshakeBytes]byte
	if _, err := io.ReadFull(c.r.br, accept[:]); err != nil {
		return nil, fmt.Errorf("wire: handshake read: %w", err)
	}
	v, err := ParseHello(accept[:])
	if err != nil {
		return nil, err
	}
	if v != Version {
		return nil, fmt.Errorf("%w: server answered v%d, client speaks v%d", ErrVersion, v, Version)
	}
	return c, nil
}

// Send buffers one request frame; call Flush before blocking on Recv.
func (c *ClientConn) Send(req *Request) error {
	c.scratch = AppendRequestV(c.scratch[:0], req, Version)
	_, err := c.bw.Write(c.scratch)
	return err
}

// SendSet buffers one whole-set request frame; call Flush before blocking
// on RecvSet.
func (c *ClientConn) SendSet(req *SetRequest) error {
	var err error
	if c.scratch, err = AppendSetRequestV(c.scratch[:0], req, Version); err != nil {
		return err
	}
	_, err = c.bw.Write(c.scratch)
	return err
}

// SendDelta buffers one delta-request frame; call Flush before blocking
// on RecvDelta.
func (c *ClientConn) SendDelta(req *DeltaRequest) error {
	var err error
	if c.scratch, err = AppendDeltaRequest(c.scratch[:0], req); err != nil {
		return err
	}
	_, err = c.bw.Write(c.scratch)
	return err
}

// Flush pushes buffered frames onto the wire.
func (c *ClientConn) Flush() error { return c.bw.Flush() }

// Recv blocks for the next response frame and decodes it into resp.
// Responses arrive in completion order, not send order — correlate by ID.
func (c *ClientConn) Recv(resp *Response) error {
	body, err := c.next(TypeResponse, "response")
	if err != nil {
		return err
	}
	return ParseResponseV(body, resp, Version)
}

// RecvSet blocks for the next set-response frame and decodes it into resp.
func (c *ClientConn) RecvSet(resp *SetResponse) error {
	body, err := c.next(TypeSetResponse, "set response")
	if err != nil {
		return err
	}
	return ParseSetResponseV(body, resp, Version)
}

// RecvDelta blocks for the next delta-response frame and decodes it into resp.
func (c *ClientConn) RecvDelta(resp *DeltaResponse) error {
	body, err := c.next(TypeDeltaResponse, "delta response")
	if err != nil {
		return err
	}
	return ParseDeltaResponse(body, resp)
}

// next reads the next frame, which must be of type want.
func (c *ClientConn) next(want byte, what string) ([]byte, error) {
	typ, body, err := c.r.Next()
	if err != nil {
		return nil, err
	}
	if typ != want {
		return nil, fmt.Errorf("%w: 0x%02x where a %s was expected", ErrUnknownType, typ, what)
	}
	return body, nil
}

// Close tears the connection down.
func (c *ClientConn) Close() error { return c.conn.Close() }
