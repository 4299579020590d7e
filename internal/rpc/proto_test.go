package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"syscall"
	"testing"
	"time"
)

// TestFrameTooLargeOnWrite: MaxFrame is enforced on the WRITE side with the
// typed error — an oversized frame never reaches the wire, so the peer
// cannot be hung by it.
func TestFrameTooLargeOnWrite(t *testing.T) {
	cases := []struct {
		name    string
		payload int
		wantErr bool
	}{
		{"v2 under limit", MaxFrame - 1, false},
		{"v2 at limit", MaxFrame, false},
		{"v2 one over", MaxFrame + 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := writeFrameV2(io.Discard, opPut, 0, 1, make([]byte, tc.payload))
			if tc.wantErr != (err != nil) {
				t.Fatalf("payload %d: err=%v, want err=%v", tc.payload, err, tc.wantErr)
			}
			if tc.wantErr && !errors.Is(err, ErrFrameTooLarge) {
				t.Fatalf("payload %d: %v is not ErrFrameTooLarge", tc.payload, err)
			}
		})
	}
}

// TestFrameTooLargeOnRead: a corrupt or hostile length field fails before
// allocation.
func TestFrameTooLargeOnRead(t *testing.T) {
	var buf bytes.Buffer
	hdr := make([]byte, headerSize)
	putHeader(hdr, header{op: opGet, id: 1, n: MaxFrame + 1})
	buf.Write(hdr)
	if _, _, err := readFrameV2(&buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized read: %v", err)
	}
}

// TestOversizedPutDoesNotPoisonConnection: the end-to-end form of the write
// bugfix — a too-large request fails typed and the SAME connection keeps
// working (nothing partial was written).
func TestOversizedPutDoesNotPoisonConnection(t *testing.T) {
	ctx := context.Background()
	_, c := newTestServer(t, 1)
	err := c.Put(ctx, "huge", make([]byte, MaxFrame))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized put: %v", err)
	}
	if err := c.Put(ctx, "normal", []byte("v")); err != nil {
		t.Fatalf("connection poisoned by oversized put: %v", err)
	}
	v, err := c.Get(ctx, "normal")
	if err != nil || !bytes.Equal(v, []byte("v")) {
		t.Fatalf("read after oversized put: %q %v", v, err)
	}
	if n := c.pendingCount(); n != 0 {
		t.Fatalf("pending map leaked the rejected call: %d", n)
	}
}

// TestErrorTaxonomy: every non-OK code surfaces as a *WireError matching
// exactly its own sentinel via errors.Is.
func TestErrorTaxonomy(t *testing.T) {
	sentinels := map[Code]error{
		CodeNotFound:      ErrNotFound,
		CodeOutOfService:  ErrOutOfService,
		CodeBadRequest:    ErrBadRequest,
		CodeInternal:      ErrInternal,
		CodeFrameTooLarge: ErrFrameTooLarge,
		CodeShutdown:      ErrShutdown,
		CodeUnsupported:   ErrUnsupported,
	}
	for code, want := range sentinels {
		err := wireErr(code, "detail text")
		if !errors.Is(err, want) {
			t.Fatalf("%v does not match its sentinel", code)
		}
		for other, sentinel := range sentinels {
			if other != code && errors.Is(err, sentinel) {
				t.Fatalf("%v also matches %v's sentinel", code, other)
			}
		}
		var we *WireError
		if !errors.As(err, &we) || we.Code != code {
			t.Fatalf("%v: not a *WireError carrying its code", code)
		}
	}
	if wireErr(CodeOK, "") != nil {
		t.Fatal("CodeOK must map to a nil error")
	}
}

// TestUnknownOpcodeOnWire: a raw v2 frame with an unknown opcode gets a
// bad_request response echoing the request id — it must not kill the
// connection.
func TestUnknownOpcodeOnWire(t *testing.T) {
	srv, _ := newTestServer(t, 1)
	conn, err := net.Dial("tcp", srv.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(preambleV2[:]); err != nil {
		t.Fatal(err)
	}
	const bogusID = 0xDEADBEEF
	if _, err := writeFrameV2(conn, Opcode(99), 0, bogusID, nil); err != nil {
		t.Fatal(err)
	}
	h, payload, err := readFrameV2(conn)
	if err != nil {
		t.Fatal(err)
	}
	if h.id != bogusID {
		t.Fatalf("response id = %#x, want %#x", h.id, bogusID)
	}
	r := wireReader{b: payload}
	code, err := r.u16()
	if err != nil || Code(code) != CodeBadRequest {
		t.Fatalf("unknown opcode response code = %d (%v)", code, err)
	}
	// Connection is still alive: a well-formed request on the same socket.
	var w wireBuf
	w.str("probe")
	w.b = append(w.b, []byte("value")...)
	if _, err := writeFrameV2(conn, opPut, 0, 2, w.b); err != nil {
		t.Fatal(err)
	}
	h, payload, err = readFrameV2(conn)
	if err != nil || h.id != 2 {
		t.Fatalf("follow-up frame: id=%d err=%v", h.id, err)
	}
	r = wireReader{b: payload}
	if code, _ := r.u16(); Code(code) != CodeOK {
		t.Fatalf("follow-up put code = %d", code)
	}
}

// TestNonV2PreambleDropped: v2 is the only protocol. A connection that opens
// with anything but the preamble is closed with no reply byte, counts as
// neither a request nor a failure, leaves no handler behind, and does not
// disturb v2 clients of the same server.
func TestNonV2PreambleDropped(t *testing.T) {
	ctx := context.Background()
	srv, c := newTestServer(t, 1)
	addr := srv.ln.Addr().String()
	roundTrip := func(key string) {
		t.Helper()
		if err := c.Put(ctx, key, []byte(key)); err != nil {
			t.Fatal(err)
		}
		if v, err := c.Get(ctx, key); err != nil || string(v) != key {
			t.Fatalf("v2 get %s: %q %v", key, v, err)
		}
	}
	roundTrip("before")
	before := srv.Obs().Snapshot().Counters

	oldJSON := []byte(`{"op":"get","shard_id":"k"}`)
	openers := []struct {
		name string
		sent []byte
	}{
		{"retired JSON frame", append(binary.BigEndian.AppendUint32(nil, uint32(len(oldJSON))), oldJSON...)},
		{"four garbage bytes", []byte{0xDE, 0xAD, 0xBE, 0xEF}},
		{"preamble with another version byte", []byte{'S', '2', 'P', 0x01}},
		{"two bytes then hang-up", []byte{'S', '2'}},
	}
	for _, o := range openers {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		// A handler parked on the dead connection would hang the read below;
		// the watchdog turns that into a failure.
		watchdog := time.AfterFunc(10*time.Second, func() { _ = conn.Close() })
		if _, err := conn.Write(o.sent); err != nil {
			t.Fatalf("%s: write: %v", o.name, err)
		}
		if len(o.sent) < len(preambleV2) {
			if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
				t.Fatalf("%s: half-close: %v", o.name, err)
			}
		}
		// The server hangs up after four bytes; when the opener was longer
		// the unread rest turns its FIN into a reset, which is the same
		// answer: the connection is over and nothing was said.
		reply, err := io.ReadAll(conn)
		watchdog.Stop()
		_ = conn.Close()
		if len(reply) != 0 || (err != nil && !errors.Is(err, syscall.ECONNRESET)) {
			t.Fatalf("%s: server replied %q, err %v; want no bytes and EOF", o.name, reply, err)
		}
	}

	after := srv.Obs().Snapshot().Counters
	for _, name := range []string{"rpc.requests", "rpc.failures"} {
		if after[name] != before[name] {
			t.Fatalf("%s moved %d -> %d on connections that never sent a frame", name, before[name], after[name])
		}
	}
	// The server untracks a connection before closing it, so by the time
	// every opener read EOF only the v2 client's connection is left.
	srv.mu.Lock()
	open := len(srv.conns)
	srv.mu.Unlock()
	if open != 1 {
		t.Fatalf("%d connections still tracked, want 1 (the v2 client)", open)
	}
	roundTrip("after")

	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("srv.Close did not return: a handler is parked on a dropped connection")
	}
}
