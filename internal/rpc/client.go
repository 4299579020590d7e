package rpc

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"shardstore/internal/obs"
	"shardstore/internal/store"
)

// Client is the v2 pipelined client. It is safe for concurrent use and
// keeps many requests in flight on one connection: each call is assigned a
// request id, frames are written back-to-back, and a demux loop routes
// responses (which may arrive out of order) to their callers.
//
// Every call takes a context.Context: cancellation or a deadline abandons
// that one request id (the demux loop discards the late response) and the
// connection stays healthy for every other call.
type Client struct {
	conn net.Conn

	// Outbound frames flow through a dedicated writer goroutine that
	// write-combines: whatever has queued since its last syscall goes out as
	// ONE conn.Write. Under pipelined load (many submitters, deep windows)
	// this collapses dozens of tiny frame writes — and with TCP_NODELAY,
	// packets — into each syscall; an uncontended call still writes
	// immediately because the channel hands its frame straight over.
	writeCh    chan []byte
	writerDone chan struct{}
	stop       chan struct{}
	stopOnce   sync.Once

	mu      sync.Mutex
	pending map[uint64]*Call
	nextID  uint64
	err     error // set once the demux loop exits; sticky

	// tracing marks every subsequent request frame with flagTraced, asking
	// the server to trace it end-to-end under the frame's request id. A
	// server without tracing ignores the bit (and does not echo it), so
	// enabling this against any peer is safe.
	tracing atomic.Bool
}

// Dial connects to a server with the v2 pipelined protocol.
func Dial(addr string) (*Client, error) {
	return DialContext(context.Background(), addr)
}

// DialContext connects with the v2 pipelined protocol, honoring ctx for
// the TCP dial.
func DialContext(ctx context.Context, addr string) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write(preambleV2[:]); err != nil {
		_ = conn.Close()
		return nil, err
	}
	c := &Client{
		conn:       conn,
		writeCh:    make(chan []byte, 256),
		writerDone: make(chan struct{}),
		stop:       make(chan struct{}),
		pending:    make(map[uint64]*Call),
	}
	go c.demux()
	go c.writeLoop()
	return c, nil
}

// Close closes the connection. In-flight calls fail with net.ErrClosed.
func (c *Client) Close() error {
	c.stopOnce.Do(func() { close(c.stop) })
	err := c.conn.Close()
	return err
}

// writeLoop is the write-combining sender: it drains every frame queued on
// writeCh and emits them as a single conn.Write. On a write error it fails
// all pending calls (the read side of a half-broken connection might stay
// up) and exits; closing writerDone unblocks submitters.
func (c *Client) writeLoop() {
	defer close(c.writerDone)
	var buf []byte
	for {
		select {
		case frame := <-c.writeCh:
			buf = append(buf[:0], frame...)
		drain:
			for len(buf) < MaxFrame {
				select {
				case more := <-c.writeCh:
					buf = append(buf, more...)
				default:
					break drain
				}
			}
			if _, err := c.conn.Write(buf); err != nil {
				c.failAll(err)
				return
			}
		case <-c.stop:
			return
		}
	}
}

// Deadlines and cancellation are the caller's context's job — every call
// takes a context.Context and there is no client-level timeout knob. A
// timed-out or cancelled call abandons its request id (the demux loop
// discards the late response), so the connection SURVIVES and other calls
// proceed untouched.

// demux is the response loop: one reader per connection, routing frames to
// pending calls by request id. Responses for abandoned ids (cancelled or
// timed-out callers) are discarded. On a connection error every pending
// call fails and the client is sticky-broken.
func (c *Client) demux() {
	br := bufio.NewReaderSize(c.conn, 64<<10)
	for {
		h, payload, err := readFrameV2(br)
		if err != nil {
			c.failAll(err)
			return
		}
		c.mu.Lock()
		call, ok := c.pending[h.id]
		if ok {
			delete(c.pending, h.id)
		}
		c.mu.Unlock()
		if !ok {
			continue // abandoned call: discard the late response
		}
		call.flags = h.flags // e.g. the server's flagTraced echo
		p, derr := decodeResp(call.op, payload)
		if derr != nil {
			p = respErr(CodeInternal, "decode response: "+derr.Error())
		}
		call.ch <- p // buffered; never blocks
	}
}

// failAll terminates every pending call after the demux loop exits.
func (c *Client) failAll(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	calls := c.pending
	c.pending = make(map[uint64]*Call)
	c.mu.Unlock()
	for _, call := range calls {
		close(call.ch)
	}
}

// connErr reports why the connection died.
func (c *Client) connErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	return net.ErrClosed
}

// pendingCount reports in-flight calls (tests assert demux cleanup).
func (c *Client) pendingCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// SetTracing toggles server-side tracing for subsequent requests from this
// client (the flagTraced negotiation bit).
func (c *Client) SetTracing(on bool) { c.tracing.Store(on) }

// Call is one in-flight request: the future returned by the Go* forms.
type Call struct {
	c     *Client
	op    Opcode
	id    uint64
	ch    chan *wireResp
	err   error // submit-time failure; Wait returns it
	flags uint8 // response frame flags (set by demux before delivery)
}

// submit encodes and writes one request frame, registering the pending
// call. It never blocks on the response.
func (c *Client) submit(q *wireReq) *Call {
	call := &Call{c: c, op: q.op, ch: make(chan *wireResp, 1)}
	payload, err := encodeReq(q)
	if err != nil {
		call.err = err
		return call
	}
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		call.err = err
		return call
	}
	c.nextID++
	call.id = c.nextID
	c.pending[call.id] = call
	c.mu.Unlock()

	var flags uint8
	if q.durable {
		flags |= flagDurable
	}
	if c.tracing.Load() {
		flags |= flagTraced
	}
	frame, werr := appendFrameV2(nil, q.op, flags, call.id, payload)
	if werr == nil {
		select {
		case c.writeCh <- frame:
		case <-c.writerDone:
			werr = c.connErr()
		}
	}
	if werr != nil {
		c.abandon(call.id)
		call.err = werr
	}
	return call
}

// abandon forgets a request id; the demux loop will discard its response.
func (c *Client) abandon(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// waitResp blocks for the response, the context, or connection death.
func (call *Call) waitResp(ctx context.Context) (*wireResp, error) {
	if call.err != nil {
		return nil, call.err
	}
	select {
	case p, ok := <-call.ch:
		if !ok {
			return nil, call.c.connErr()
		}
		if p.code != CodeOK {
			return nil, wireErr(p.code, p.msg)
		}
		return p, nil
	case <-ctx.Done():
		call.c.abandon(call.id)
		return nil, ctx.Err()
	}
}

// Wait blocks until the call completes, the context is done, or the
// connection dies. For a GoGet call the returned bytes are the shard value;
// mutating calls return nil bytes. A context expiry abandons only this
// call — the connection survives.
func (call *Call) Wait(ctx context.Context) ([]byte, error) {
	p, err := call.waitResp(ctx)
	if err != nil {
		return nil, err
	}
	if call.op == opGet && p.value == nil {
		return []byte{}, nil
	}
	return p.value, nil
}

// roundTrip is the synchronous form: submit + wait.
func (c *Client) roundTrip(ctx context.Context, q *wireReq) (*wireResp, error) {
	return c.submit(q).waitResp(ctx)
}

// --- async futures (harness-driven concurrency) ---

// GoPut issues a put without waiting; Wait resolves it.
func (c *Client) GoPut(shardID string, value []byte) *Call {
	return c.submit(&wireReq{op: opPut, key: shardID, value: value})
}

// GoGet issues a get without waiting; Wait returns the value.
func (c *Client) GoGet(shardID string) *Call {
	return c.submit(&wireReq{op: opGet, key: shardID})
}

// GoDelete issues a delete without waiting; Wait resolves it.
func (c *Client) GoDelete(shardID string) *Call {
	return c.submit(&wireReq{op: opDelete, key: shardID})
}

// --- request plane ---

// Put stores a shard.
func (c *Client) Put(ctx context.Context, shardID string, value []byte) error {
	_, err := c.roundTrip(ctx, &wireReq{op: opPut, key: shardID, value: value})
	return err
}

// PutDurable stores a shard and returns only once the server reports the
// write persistent: the server enrolls the put in its group-commit barrier,
// so concurrent PutDurable calls from any number of clients share device
// flushes instead of paying one per call.
func (c *Client) PutDurable(ctx context.Context, shardID string, value []byte) error {
	_, err := c.roundTrip(ctx, &wireReq{op: opPut, key: shardID, value: value, durable: true})
	return err
}

// Get fetches a shard.
func (c *Client) Get(ctx context.Context, shardID string) ([]byte, error) {
	p, err := c.roundTrip(ctx, &wireReq{op: opGet, key: shardID})
	if err != nil {
		return nil, err
	}
	if p.value == nil {
		return []byte{}, nil
	}
	return p.value, nil
}

// Delete removes a shard.
func (c *Client) Delete(ctx context.Context, shardID string) error {
	_, err := c.roundTrip(ctx, &wireReq{op: opDelete, key: shardID})
	return err
}

// BatchResult is one item's outcome in an MGet.
type BatchResult struct {
	Value []byte
	Err   error // nil, or a *WireError matching the sentinel taxonomy
}

// itemErrs lowers per-item wire codes into errors (nil for OK).
func itemErrs(codes []Code) []error {
	errs := make([]error, len(codes))
	for i, code := range codes {
		errs[i] = wireErr(code, "")
	}
	return errs
}

// MGet fetches a batch of shards in ONE frame. Items are steered across
// disks server-side; outcomes are per item — a missing shard yields
// ErrNotFound in its slot without failing the rest.
func (c *Client) MGet(ctx context.Context, shardIDs []string) ([]BatchResult, error) {
	p, err := c.roundTrip(ctx, &wireReq{op: opMGet, keys: shardIDs})
	if err != nil {
		return nil, err
	}
	if len(p.itemCodes) != len(shardIDs) {
		return nil, fmt.Errorf("rpc: mget returned %d items for %d ids", len(p.itemCodes), len(shardIDs))
	}
	out := make([]BatchResult, len(shardIDs))
	for i, code := range p.itemCodes {
		if code == CodeOK {
			v := p.values[i]
			if v == nil {
				v = []byte{}
			}
			out[i] = BatchResult{Value: v}
		} else {
			out[i] = BatchResult{Err: wireErr(code, "")}
		}
	}
	return out, nil
}

// MPut stores a batch of shards in ONE frame with per-item outcomes.
func (c *Client) MPut(ctx context.Context, shardIDs []string, values [][]byte) ([]error, error) {
	p, err := c.roundTrip(ctx, &wireReq{op: opMPut, keys: shardIDs, values: values})
	if err != nil {
		return nil, err
	}
	if len(p.itemCodes) != len(shardIDs) {
		return nil, fmt.Errorf("rpc: mput returned %d items for %d ids", len(p.itemCodes), len(shardIDs))
	}
	return itemErrs(p.itemCodes), nil
}

// MPutDurable is MPut with a durability barrier: the server acknowledges
// each item only after its write is persistent, amortizing one group commit
// across the whole batch (per target disk).
func (c *Client) MPutDurable(ctx context.Context, shardIDs []string, values [][]byte) ([]error, error) {
	p, err := c.roundTrip(ctx, &wireReq{op: opMPut, keys: shardIDs, values: values, durable: true})
	if err != nil {
		return nil, err
	}
	if len(p.itemCodes) != len(shardIDs) {
		return nil, fmt.Errorf("rpc: mput returned %d items for %d ids", len(p.itemCodes), len(shardIDs))
	}
	return itemErrs(p.itemCodes), nil
}

// MDelete removes a batch of shards in ONE frame with per-item outcomes.
func (c *Client) MDelete(ctx context.Context, shardIDs []string) ([]error, error) {
	p, err := c.roundTrip(ctx, &wireReq{op: opMDelete, keys: shardIDs})
	if err != nil {
		return nil, err
	}
	if len(p.itemCodes) != len(shardIDs) {
		return nil, fmt.Errorf("rpc: mdelete returned %d items for %d ids", len(p.itemCodes), len(shardIDs))
	}
	return itemErrs(p.itemCodes), nil
}

// Scan fetches one ordered page of the range [start, end): live shards in
// ascending byte order, newest value each, end "" unbounded, limit 0 letting
// the server pick its page cap. next is the continuation token: "" means the
// range is exhausted; otherwise pass it as the next call's start to resume
// the cursor.
func (c *Client) Scan(ctx context.Context, start, end string, limit int) (entries []store.ScanEntry, next string, err error) {
	p, err := c.roundTrip(ctx, &wireReq{op: opScan, key: start, end: end, limit: limit})
	if err != nil {
		return nil, "", err
	}
	entries = make([]store.ScanEntry, len(p.keys))
	for i, k := range p.keys {
		v := p.values[i]
		if v == nil {
			v = []byte{}
		}
		entries[i] = store.ScanEntry{Key: k, Value: v}
	}
	return entries, p.next, nil
}

// Iterator streams the ordered range [start, end), fetching pages of up to
// pageSize entries (0 = server's cap) and refetching transparently via
// continuation tokens, so callers see one seamless cursor regardless of how
// the server paginates under its frame cap.
type Iterator struct {
	c        *Client
	ctx      context.Context
	end      string
	pageSize int
	cursor   string
	buf      []store.ScanEntry
	i        int
	done     bool
	err      error
}

// Iterator starts a streaming scan of [start, end).
func (c *Client) Iterator(ctx context.Context, start, end string, pageSize int) *Iterator {
	return &Iterator{c: c, ctx: ctx, end: end, pageSize: pageSize, cursor: start}
}

// Next advances to the next entry, fetching the next page when the buffered
// one is spent. It returns false at the end of the range or on error (check
// Err to tell the two apart).
func (it *Iterator) Next() bool {
	for {
		if it.err != nil {
			return false
		}
		if it.i < len(it.buf) {
			it.i++
			return true
		}
		if it.done {
			return false
		}
		entries, next, err := it.c.Scan(it.ctx, it.cursor, it.end, it.pageSize)
		if err != nil {
			it.err = err
			return false
		}
		it.buf, it.i = entries, 0
		it.cursor = next
		it.done = next == ""
		// An empty non-final page still advanced the cursor; refetch.
	}
}

// Entry returns the current entry (valid after a true Next).
func (it *Iterator) Entry() store.ScanEntry { return it.buf[it.i-1] }

// Err returns the terminal error, if Next stopped on one.
func (it *Iterator) Err() error { return it.err }

// --- control plane ---

// List returns all shard ids across disks.
func (c *Client) List(ctx context.Context) ([]string, error) {
	p, err := c.roundTrip(ctx, &wireReq{op: opList})
	if err != nil {
		return nil, err
	}
	return p.keys, nil
}

// BulkCreate stores a batch of shards (control plane, fail-fast).
func (c *Client) BulkCreate(ctx context.Context, ids []string, values [][]byte) error {
	_, err := c.roundTrip(ctx, &wireReq{op: opBulkCreate, keys: ids, values: values})
	return err
}

// BulkRemove deletes a batch of shards (control plane, fail-fast).
func (c *Client) BulkRemove(ctx context.Context, ids []string) error {
	_, err := c.roundTrip(ctx, &wireReq{op: opBulkRemove, keys: ids})
	return err
}

// RemoveDisk takes disk idx out of service.
func (c *Client) RemoveDisk(ctx context.Context, idx int) error {
	_, err := c.roundTrip(ctx, &wireReq{op: opRemoveDisk, disk: idx})
	return err
}

// ReturnDisk brings disk idx back into service.
func (c *Client) ReturnDisk(ctx context.Context, idx int) error {
	_, err := c.roundTrip(ctx, &wireReq{op: opReturnDisk, disk: idx})
	return err
}

// Flush pumps disk idx's IO scheduler to durability.
func (c *Client) Flush(ctx context.Context, idx int) error {
	_, err := c.roundTrip(ctx, &wireReq{op: opFlush, disk: idx})
	return err
}

// Scrub runs one full integrity-scrub round on disk idx and returns the
// disk's cumulative scrubber state afterwards.
func (c *Client) Scrub(ctx context.Context, idx int) (*ScrubStatus, error) {
	p, err := c.roundTrip(ctx, &wireReq{op: opScrub, disk: idx})
	if err != nil {
		return nil, err
	}
	return p.scrub, nil
}

// ScrubStatus reports disk idx's scrubber state without scrubbing.
func (c *Client) ScrubStatus(ctx context.Context, idx int) (*ScrubStatus, error) {
	p, err := c.roundTrip(ctx, &wireReq{op: opScrubStatus, disk: idx})
	if err != nil {
		return nil, err
	}
	return p.scrub, nil
}

// Stats returns the aggregate server statistics.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	p, err := c.roundTrip(ctx, &wireReq{op: opStats})
	if err != nil {
		return nil, err
	}
	return p.stats, nil
}

// Metrics returns the host-wide observability snapshot: the server's rpc
// metrics merged with every metered backend's registry.
func (c *Client) Metrics(ctx context.Context) (*obs.Snapshot, error) {
	p, err := c.roundTrip(ctx, &wireReq{op: opMetrics})
	if err != nil {
		return nil, err
	}
	if p.metrics == nil {
		return &obs.Snapshot{}, nil
	}
	return p.metrics, nil
}

// Trace returns the server's last completed request traces (oldest-first).
// Requires the server to run with tracing enabled; otherwise the call fails
// with ErrUnsupported.
func (c *Client) Trace(ctx context.Context) (*TraceDump, error) {
	p, err := c.roundTrip(ctx, &wireReq{op: opTrace})
	if err != nil {
		return nil, err
	}
	if p.trace == nil {
		return &TraceDump{}, nil
	}
	return p.trace, nil
}

// SlowLog returns the server's retained slow-request traces: completed
// requests whose duration met the server's slow threshold.
func (c *Client) SlowLog(ctx context.Context) (*TraceDump, error) {
	p, err := c.roundTrip(ctx, &wireReq{op: opSlowLog})
	if err != nil {
		return nil, err
	}
	if p.trace == nil {
		return &TraceDump{}, nil
	}
	return p.trace, nil
}
