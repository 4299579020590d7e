package rpc

import (
	"encoding/binary"
	"fmt"
	"io"
)

// MaxFrame bounds a single request/response frame's payload, enforced on
// BOTH the write and read side (a peer that encodes an oversized frame gets
// ErrFrameTooLarge locally instead of hanging the connection).
const MaxFrame = 16 << 20

// Connection preamble: a v2 client's first four bytes. The server closes a
// connection that opens with anything else without replying (serveConn);
// there is no other protocol version to fall back to.
var preambleV2 = [4]byte{'S', '2', 'P', 0x02}

// Opcode is a v2 wire operation. Values are wire-stable: never renumber.
type Opcode uint8

const (
	opInvalid     Opcode = 0
	opPut         Opcode = 1
	opGet         Opcode = 2
	opDelete      Opcode = 3
	opList        Opcode = 4
	opBulkCreate  Opcode = 5
	opBulkRemove  Opcode = 6
	opRemoveDisk  Opcode = 7
	opReturnDisk  Opcode = 8
	opFlush       Opcode = 9
	opStats       Opcode = 10
	opScrub       Opcode = 11
	opScrubStatus Opcode = 12
	opMetrics     Opcode = 13
	opMGet        Opcode = 14
	opMPut        Opcode = 15
	opMDelete     Opcode = 16
	opTrace       Opcode = 17
	opSlowLog     Opcode = 18
	opScan        Opcode = 19

	// opMax is the highest assigned opcode (per-op metric handles are
	// resolved for every opcode up to it).
	opMax = opScan
)

// opName maps opcodes to their names (metric names, traces, errors).
func opName(op Opcode) string {
	switch op {
	case opPut:
		return "put"
	case opGet:
		return "get"
	case opDelete:
		return "delete"
	case opList:
		return "list"
	case opBulkCreate:
		return "bulk_create"
	case opBulkRemove:
		return "bulk_remove"
	case opRemoveDisk:
		return "remove_disk"
	case opReturnDisk:
		return "return_disk"
	case opFlush:
		return "flush"
	case opStats:
		return "stats"
	case opScrub:
		return "scrub"
	case opScrubStatus:
		return "scrub_status"
	case opMetrics:
		return "metrics"
	case opMGet:
		return "mget"
	case opMPut:
		return "mput"
	case opMDelete:
		return "mdelete"
	case opTrace:
		return "trace"
	case opSlowLog:
		return "slowlog"
	case opScan:
		return "scan"
	default:
		return fmt.Sprintf("op_%d", uint8(op))
	}
}

// v2 frame header layout (16 bytes, big-endian). See doc.go for the full
// wire contract.
const (
	frameMagic   = 0xA7
	frameVersion = 2
	headerSize   = 16
)

// flagDurable marks a put/mput request frame as durability-waiting: the
// server acknowledges only after the mutation's dependency is persistent,
// enrolling in the backend's group-commit barrier. Other bits are reserved
// and ignored.
const flagDurable uint8 = 0x01

// flagTraced on a request asks the server to trace it end-to-end, using the
// frame's request id as the trace id (no extra header bytes). A server with
// tracing enabled echoes the flag on the response so the client learns the
// negotiation outcome; older v2 peers ignore reserved bits, so the flag is
// backward-compatible in both directions.
const flagTraced uint8 = 0x02

// header is one decoded v2 frame header.
type header struct {
	op    Opcode
	flags uint8
	id    uint64
	n     uint32 // payload length
}

func putHeader(buf []byte, h header) {
	buf[0] = frameMagic
	buf[1] = frameVersion
	buf[2] = uint8(h.op)
	buf[3] = h.flags
	binary.BigEndian.PutUint64(buf[4:12], h.id)
	binary.BigEndian.PutUint32(buf[12:16], h.n)
}

func parseHeader(buf []byte) (header, error) {
	if buf[0] != frameMagic || buf[1] != frameVersion {
		return header{}, fmt.Errorf("rpc: bad frame header % x", buf[:2])
	}
	return header{
		op:    Opcode(buf[2]),
		flags: buf[3],
		id:    binary.BigEndian.Uint64(buf[4:12]),
		n:     binary.BigEndian.Uint32(buf[12:16]),
	}, nil
}

// appendFrameV2 appends one encoded v2 frame (header + raw payload) to dst —
// the write-combining form: callers batch several frames into one buffer and
// issue a single Write, collapsing syscalls (and, with TCP_NODELAY, packets)
// under pipelined load. Oversized payloads fail with ErrFrameTooLarge before
// any byte is appended.
func appendFrameV2(dst []byte, op Opcode, flags uint8, id uint64, payload []byte) ([]byte, error) {
	if len(payload) > MaxFrame {
		return dst, fmt.Errorf("%w: payload %d > %d", ErrFrameTooLarge, len(payload), MaxFrame)
	}
	var hb [headerSize]byte
	putHeader(hb[:], header{op: op, flags: flags, id: id, n: uint32(len(payload))})
	dst = append(dst, hb[:]...)
	return append(dst, payload...), nil
}

// writeFrameV2 sends one v2 frame as a single Write so concurrent writers
// never interleave partial frames. Returns the total bytes written.
// Oversized payloads fail with ErrFrameTooLarge before any byte hits the
// wire.
func writeFrameV2(w io.Writer, op Opcode, flags uint8, id uint64, payload []byte) (int, error) {
	buf, err := appendFrameV2(nil, op, flags, id, payload)
	if err != nil {
		return 0, err
	}
	return w.Write(buf)
}

// readFrameV2 receives one v2 frame, enforcing MaxFrame before allocating.
func readFrameV2(r io.Reader) (header, []byte, error) {
	var hb [headerSize]byte
	if _, err := io.ReadFull(r, hb[:]); err != nil {
		return header{}, nil, err
	}
	h, err := parseHeader(hb[:])
	if err != nil {
		return header{}, nil, err
	}
	if h.n > MaxFrame {
		return header{}, nil, fmt.Errorf("%w: payload %d > %d", ErrFrameTooLarge, h.n, MaxFrame)
	}
	payload := make([]byte, h.n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return header{}, nil, err
	}
	return h, payload, nil
}

// --- payload codecs ---
//
// Payloads are raw big-endian binary: strings are u16 length + bytes,
// values are u32 length + bytes (raw, never base64). A truncated or
// oversized field decodes to an error, not a panic.

type wireBuf struct{ b []byte }

func (w *wireBuf) u16(v uint16) { w.b = binary.BigEndian.AppendUint16(w.b, v) }
func (w *wireBuf) u32(v uint32) { w.b = binary.BigEndian.AppendUint32(w.b, v) }

func (w *wireBuf) str(s string) {
	w.u16(uint16(len(s)))
	w.b = append(w.b, s...)
}

func (w *wireBuf) bytes(v []byte) {
	w.u32(uint32(len(v)))
	w.b = append(w.b, v...)
}

type wireReader struct{ b []byte }

var errTruncated = fmt.Errorf("rpc: truncated payload")

func (r *wireReader) u16() (uint16, error) {
	if len(r.b) < 2 {
		return 0, errTruncated
	}
	v := binary.BigEndian.Uint16(r.b)
	r.b = r.b[2:]
	return v, nil
}

func (r *wireReader) u32() (uint32, error) {
	if len(r.b) < 4 {
		return 0, errTruncated
	}
	v := binary.BigEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v, nil
}

func (r *wireReader) str() (string, error) {
	n, err := r.u16()
	if err != nil {
		return "", err
	}
	if len(r.b) < int(n) {
		return "", errTruncated
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s, nil
}

func (r *wireReader) bytes() ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if uint64(len(r.b)) < uint64(n) {
		return nil, errTruncated
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v, nil
}

// rest consumes the remaining payload (the raw-value tail of put/get).
func (r *wireReader) rest() []byte {
	v := r.b
	r.b = nil
	return v
}
