package rpc

import (
	"bufio"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"

	"shardstore/internal/dep"
	"shardstore/internal/obs"
	"shardstore/internal/scrub"
	"shardstore/internal/store"
)

// connWorkers bounds concurrent dispatch per connection: a pipeline can
// queue arbitrarily deep, but only this many requests execute at once, so
// one chatty client cannot monopolize the host's goroutine budget.
const connWorkers = 32

// ScrubStatus is one disk's cumulative scrubber state: the integrity
// counters plus the shards currently recorded as irreparably lost.
type ScrubStatus struct {
	Rounds         uint64   `json:"rounds"`
	KeysScanned    uint64   `json:"keys_scanned"`
	FramesVerified uint64   `json:"frames_verified"`
	BytesVerified  uint64   `json:"bytes_verified"`
	BadReplicas    uint64   `json:"bad_replicas"`
	Repaired       uint64   `json:"repaired"`
	RepairFailed   uint64   `json:"repair_failed"`
	SwapLost       uint64   `json:"swap_lost"`
	Irreparable    uint64   `json:"irreparable"`
	LostShards     []string `json:"lost_shards,omitempty"`
}

// Stats is the aggregate server view.
type Stats struct {
	Disks         int      `json:"disks"`
	Shards        int      `json:"shards"`
	ShardsPer     []int    `json:"shards_per_disk"`
	InService     []bool   `json:"in_service"`
	ChunkPuts     []uint64 `json:"chunk_puts"`
	Reclaims      []uint64 `json:"reclaims"`
	GetsPerDisk   []uint64 `json:"gets_per_disk"`
	ScrubRounds   []uint64 `json:"scrub_rounds"`
	ScrubRepaired []uint64 `json:"scrub_repaired"`
	ScrubLost     []int    `json:"scrub_lost"` // shards per disk with a standing loss verdict
}

// TraceDump is the payload of the trace and slowlog ops: the server-side
// tracer's retained request traces, oldest-first, plus how many earlier
// traces the tracer overwrote. A harness failure's trail is the same record
// (core.Failure.Trace).
type TraceDump struct {
	Traces    []obs.ReqTrace `json:"traces,omitempty"`
	Truncated uint64         `json:"truncated,omitempty"`
	// Threshold is the slow-log gate in server clock units (slowlog only).
	Threshold uint64 `json:"threshold,omitempty"`
}

// Server hosts one KV backend per disk behind a shared listener, speaking
// the v2 wire contract (pipelined binary frames, see doc.go).
type Server struct {
	mu     sync.Mutex
	kvs    []store.KV
	ln     net.Listener
	wg     sync.WaitGroup
	conns  map[net.Conn]struct{}
	closed bool

	// obs meters the rpc layer itself. The server runs on the wall clock by
	// default; per-store registries keep whatever clock they were built with.
	obs *obs.Obs
	// tracer is resolved once at construction (attach WithSpans to the Obs
	// before building the server); nil means traced-request flags are
	// ignored and the trace/slowlog ops answer CodeUnsupported.
	tracer   *obs.Tracer
	requests *obs.Counter
	failures *obs.Counter
	bytesIn  *obs.Counter
	bytesOut *obs.Counter
	inflight *obs.Gauge     // requests read and not yet answered, all connections
	depth    *obs.Histogram // per connection, requests read and not yet answered, counting the one just read
	opLat    map[Opcode]*obs.Histogram
}

// NewServer wraps per-disk stores. The rpc layer meters itself on the wall
// clock; pass a non-nil o to use a caller-supplied registry (e.g. a logical
// clock for deterministic output).
func NewServer(stores []*store.Store, o ...*obs.Obs) *Server {
	kvs := make([]store.KV, len(stores))
	for i, st := range stores {
		kvs[i] = st
	}
	return NewServerKV(kvs, o...)
}

// NewServerKV wraps per-disk KV backends: stores, or wrappers around them.
func NewServerKV(kvs []store.KV, o ...*obs.Obs) *Server {
	var so *obs.Obs
	if len(o) > 0 && o[0] != nil {
		so = o[0]
	} else {
		so = obs.New(obs.NewWallClock())
	}
	s := &Server{
		kvs:      append([]store.KV(nil), kvs...),
		conns:    make(map[net.Conn]struct{}),
		obs:      so,
		tracer:   so.Tracer(),
		requests: so.Counter("rpc.requests"),
		failures: so.Counter("rpc.failures"),
		bytesIn:  so.Counter("rpc.bytes_in"),
		bytesOut: so.Counter("rpc.bytes_out"),
		inflight: so.Gauge("rpc.inflight"),
		depth:    so.Histogram("rpc.pipeline_depth"),
		opLat:    make(map[Opcode]*obs.Histogram),
	}
	for op := opPut; op <= opMax; op++ {
		s.opLat[op] = so.Histogram("rpc." + opName(op) + "_lat")
	}
	return s
}

// Obs returns the server's own observability registry.
func (s *Server) Obs() *obs.Obs { return s.obs }

// steer picks the disk for a shard id (the §2.1 steering function).
func (s *Server) steer(shardID string) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(shardID))
	return int(h.Sum32() % uint32(len(s.kvs)))
}

// Serve starts accepting connections on addr (e.g. "127.0.0.1:0") and
// returns the bound address.
func (s *Server) Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if !s.track(conn) {
				_ = conn.Close()
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer s.untrack(conn)
				s.serveConn(conn)
			}()
		}
	}()
	return ln.Addr().String(), nil
}

func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	_ = conn.Close()
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Close stops the listener, closes open connections, and waits for
// in-flight work. Requests dispatched after Close begins answer
// CodeShutdown.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns { //shardlint:allow mapiter every tracked connection is closed; order is unobservable
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
}

// serveConn checks the connection's first four bytes against the v2
// preamble "S2P\x02". Anything else — an older protocol, a stray client,
// garbage, a peer that hangs up early — gets the connection closed without
// a reply byte and without touching the request counters: no frame was
// ever parsed, so there is no request id to answer.
func (s *Server) serveConn(conn net.Conn) {
	var head [4]byte
	if _, err := io.ReadFull(conn, head[:]); err != nil || head != preambleV2 {
		return
	}
	s.bytesIn.Add(uint64(len(head)))
	s.serveConnV2(conn)
}

// outFrame is one response queued for the connection's writer goroutine.
type outFrame struct {
	op      Opcode
	flags   uint8
	id      uint64
	payload []byte
	// sp is the request's span (nil when untraced); the writer records the
	// reply stage from queued and finishes it after the frame hits the wire.
	sp     *obs.Span
	queued uint64
}

// inFrame is one request queued for the connection's worker pool.
type inFrame struct {
	h       header
	payload []byte
	sp      *obs.Span
}

// serveConnV2 runs the pipelined loop: the reader parses frames and hands
// each request to a bounded worker; one writer goroutine serializes
// response frames, so responses complete — and return — out of order.
func (s *Server) serveConnV2(conn net.Conn) {
	writeCh := make(chan outFrame, connWorkers)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		var buf []byte
		batch := make([]outFrame, 0, connWorkers)
		for f := range writeCh {
			// Write-combining: take every response already queued and emit
			// them as ONE Write. Under pipelined load this collapses up to
			// connWorkers response syscalls into a single one.
			batch = append(batch[:0], f)
			buf, _ = appendFrameV2(buf[:0], f.op, f.flags, f.id, f.payload)
		drain:
			for len(buf) < MaxFrame {
				select {
				case more, ok := <-writeCh:
					if !ok {
						break drain
					}
					batch = append(batch, more)
					buf, _ = appendFrameV2(buf, more.op, more.flags, more.id, more.payload)
				default:
					break drain
				}
			}
			n, err := conn.Write(buf)
			s.bytesOut.Add(uint64(n))
			if err != nil {
				// The connection is gone (oversized frames are impossible
				// here: encodeResp already guards MaxFrame); drain remaining
				// frames so handlers never block on a dead writer, finishing
				// any spans so they do not linger in the active set.
				for _, f := range batch {
					f.sp.Finish()
				}
				for f := range writeCh {
					f.sp.Finish()
				}
				return
			}
			// The reply stage ends only after the frame is on the wire, so a
			// stalled writer shows up in the trace, not as unattributed time.
			for _, f := range batch {
				if f.sp != nil {
					f.sp.Stage(obs.StageReply, f.queued, "")
					f.sp.Finish()
				}
			}
		}
	}()

	// Fixed worker pool: connWorkers goroutines live for the connection's
	// lifetime instead of one spawn per request — deep pipelines reuse warm
	// stacks (dispatch recurses into the store; per-request goroutines paid a
	// stack growth every time). The buffered channel doubles as the dispatch
	// bound: the reader blocks once connWorkers requests are queued unserved.
	workCh := make(chan inFrame, connWorkers)
	var workers sync.WaitGroup
	var depth atomic.Int64
	for i := 0; i < connWorkers; i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for w := range workCh {
				// The span opened when the reader parsed the frame; time
				// until a worker picked it up is dispatch-queue wait.
				w.sp.Stage(obs.StageQueueWait, w.sp.StartTick(), "")
				var p *wireResp
				q, err := decodeReq(w.h.op, w.payload)
				if q != nil {
					q.durable = w.h.flags&flagDurable != 0
					w.sp.SetKey(q.key)
				}
				if err != nil {
					p = respErr(CodeBadRequest, err.Error())
					s.requests.Inc()
					s.failures.Inc()
				} else {
					p = s.dispatch(q, w.sp)
				}
				body, err := encodeResp(w.h.op, p)
				if err != nil {
					body, _ = encodeResp(w.h.op, respErr(codeFor(err), err.Error()))
				}
				if len(body) > MaxFrame {
					// E.g. an mget whose aggregate values exceed the frame
					// cap: answer typed instead of handing the writer an
					// unsendable frame (which would strand the caller's
					// request id).
					body, _ = encodeResp(w.h.op, respErr(CodeFrameTooLarge,
						fmt.Sprintf("response payload %d > %d", len(body), MaxFrame)))
				}
				// The request is answered: count it out before the reply can
				// reach the caller, so a caller's next frame never sees it.
				depth.Add(-1)
				s.inflight.Add(-1)
				// A send after the writer bailed is safe: the writer drains
				// the channel before returning, and it only returns once the
				// connection is dead.
				var flags uint8
				if w.sp != nil {
					// Echo the traced flag so the client knows the server
					// honored the request (the negotiation signal).
					flags |= flagTraced
				}
				select {
				case writeCh <- outFrame{op: w.h.op, flags: flags, id: w.h.id, payload: body, sp: w.sp, queued: w.sp.Now()}:
				case <-writerDone:
					w.sp.Finish()
				}
			}
		}()
	}

	br := bufio.NewReaderSize(conn, 64<<10)
	for {
		h, payload, err := readFrameV2(br)
		if err != nil {
			break
		}
		s.bytesIn.Add(uint64(headerSize + len(payload)))
		s.depth.Observe(uint64(depth.Add(1)))
		s.inflight.Add(1)
		var sp *obs.Span
		if h.flags&flagTraced != 0 && s.tracer != nil {
			// The frame's request id doubles as the trace id; the op name is
			// set here, the key once the worker decodes the payload.
			sp = s.tracer.Start(h.id, opName(h.op), "")
		}
		workCh <- inFrame{h: h, payload: payload, sp: sp}
	}
	close(workCh)
	workers.Wait()
	close(writeCh)
	<-writerDone
}

// dispatch runs one decoded request, metering it. sp is the request's span
// (nil when untraced).
func (s *Server) dispatch(q *wireReq, sp *obs.Span) *wireResp {
	start := s.obs.Now()
	var p *wireResp
	if s.isClosed() {
		p = respErr(CodeShutdown, "server shutting down")
	} else {
		p = s.dispatchInner(q, sp)
	}
	s.requests.Inc()
	if p.code != CodeOK {
		s.failures.Inc()
	}
	if h := s.opLat[q.op]; h != nil {
		h.Observe(s.obs.Now() - start)
	}
	return p
}

// kvFor returns the steering target for a request-plane call, or the
// explicit disk for control-plane calls.
func (s *Server) kvFor(q *wireReq) (store.KV, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.kvs) == 0 {
		return nil, 0, errors.New("rpc: no disks")
	}
	idx := q.disk
	if q.key != "" {
		idx = s.steer(q.key)
	}
	if idx < 0 || idx >= len(s.kvs) {
		return nil, 0, fmt.Errorf("rpc: disk %d out of range", idx)
	}
	return s.kvs[idx], idx, nil
}

// kvForKey steers one shard id (batch items steer independently).
func (s *Server) kvForKey(key string) (store.KV, error) {
	kv, _, err := s.kvFor(&wireReq{key: key})
	return kv, err
}

// Backends returns a copy of the per-disk backends the server steers to now:
// after a return_disk, the store that return opened, not the removed one.
func (s *Server) Backends() []store.KV {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]store.KV(nil), s.kvs...)
}

// replaceKV swaps the backend for disk idx (after a service-cycle reopen).
func (s *Server) replaceKV(idx int, kv store.KV) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.kvs[idx] = kv
}

func errResp(err error) *wireResp {
	return respErr(codeFor(err), err.Error())
}

func (s *Server) dispatchInner(q *wireReq, sp *obs.Span) *wireResp {
	kv, idx, err := s.kvFor(q)
	if err != nil {
		return respErr(CodeBadRequest, err.Error())
	}
	switch q.op {
	case opPut:
		if q.key == "" {
			return respErr(CodeBadRequest, "missing shard_id")
		}
		t0 := sp.Now()
		d, err := kv.Put(q.key, q.value)
		sp.Stage("store.put", t0, "")
		if err != nil {
			return errResp(err)
		}
		if q.durable {
			if err := kv.WaitDurableTraced(d, sp); err != nil {
				return errResp(err)
			}
		}
		return &wireResp{code: CodeOK}
	case opGet:
		t0 := sp.Now()
		v, err := kv.Get(q.key)
		sp.Stage("store.get", t0, "")
		if err != nil {
			return errResp(err)
		}
		return &wireResp{code: CodeOK, value: v}
	case opDelete:
		t0 := sp.Now()
		_, err := kv.Delete(q.key)
		sp.Stage("store.delete", t0, "")
		if err != nil {
			return errResp(err)
		}
		return &wireResp{code: CodeOK}
	case opList:
		// Control plane: list across all disks.
		var all []string
		s.mu.Lock()
		kvs := append([]store.KV(nil), s.kvs...)
		s.mu.Unlock()
		for _, kv := range kvs {
			ids, err := kv.List()
			if err != nil {
				if errors.Is(err, store.ErrOutOfService) {
					continue
				}
				return errResp(err)
			}
			all = append(all, ids...)
		}
		return &wireResp{code: CodeOK, keys: all}
	case opBulkCreate:
		if len(q.keys) != len(q.values) {
			return respErr(CodeBadRequest, "shards/values mismatch")
		}
		// Steer each shard to its disk (fail-fast: control-plane semantics).
		for i, id := range q.keys {
			target, err := s.kvForKey(id)
			if err != nil {
				return errResp(err)
			}
			if _, err := target.Put(id, q.values[i]); err != nil {
				return errResp(err)
			}
		}
		return &wireResp{code: CodeOK}
	case opBulkRemove:
		for _, id := range q.keys {
			target, err := s.kvForKey(id)
			if err != nil {
				return errResp(err)
			}
			if _, err := target.BulkRemove([]string{id}); err != nil {
				return errResp(err)
			}
		}
		return &wireResp{code: CodeOK}
	case opScan:
		return s.scan(q)
	case opMGet:
		return s.mGet(q.keys)
	case opMPut:
		if len(q.keys) != len(q.values) {
			return respErr(CodeBadRequest, "shards/values mismatch")
		}
		return s.mMutate(q.keys, q.values, true, q.durable, sp)
	case opMDelete:
		return s.mMutate(q.keys, nil, false, false, nil)
	case opRemoveDisk:
		if err := kv.RemoveFromService(); err != nil {
			return errResp(err)
		}
		return &wireResp{code: CodeOK}
	case opReturnDisk:
		ns, err := kv.ReturnToService()
		if err != nil {
			return errResp(err)
		}
		s.replaceKV(idx, ns)
		return &wireResp{code: CodeOK}
	case opFlush:
		if err := kv.Pump(); err != nil {
			return errResp(err)
		}
		return &wireResp{code: CodeOK}
	case opScrub:
		if _, err := kv.ScrubRound(); err != nil {
			return errResp(err)
		}
		return &wireResp{code: CodeOK, scrub: scrubStatus(kv.Scrubber())}
	case opScrubStatus:
		return &wireResp{code: CodeOK, scrub: scrubStatus(kv.Scrubber())}
	case opStats:
		return &wireResp{code: CodeOK, stats: s.stats()}
	case opMetrics:
		return &wireResp{code: CodeOK, metrics: s.metrics()}
	case opTrace:
		if s.tracer == nil {
			return respErr(CodeUnsupported, "tracing not enabled on this node")
		}
		traces, truncated := s.tracer.Completed()
		return &wireResp{code: CodeOK, trace: &TraceDump{Traces: traces, Truncated: truncated}}
	case opSlowLog:
		if s.tracer == nil {
			return respErr(CodeUnsupported, "tracing not enabled on this node")
		}
		traces, truncated := s.tracer.Slow()
		return &wireResp{code: CodeOK, trace: &TraceDump{
			Traces: traces, Truncated: truncated, Threshold: s.tracer.SlowThreshold(),
		}}
	default:
		return respErr(CodeBadRequest, fmt.Sprintf("unknown opcode %d", q.op))
	}
}

// scanPageMax bounds the entries in one scan response when the client asks
// for an unbounded page; scanByteBudget bounds the page's payload bytes so
// the response frame stays well under MaxFrame even with large values. The
// continuation token resumes the cursor where the page stopped.
const (
	scanPageMax    = 1024
	scanByteBudget = 8 << 20
)

// scan serves the ordered-range op: a range spans the whole steering space,
// so the server scans EVERY in-service backend and merges the pages (shard
// ids steer to exactly one disk, so the per-disk pages are disjoint and the
// merge is a sort). A backend that truncated its page caps the completeness
// horizon at its last key — beyond it, that backend may hold unreturned
// in-range shards, so entries past the horizon are withheld and the client
// resumes via the continuation token.
func (s *Server) scan(q *wireReq) *wireResp {
	s.mu.Lock()
	kvs := append([]store.KV(nil), s.kvs...)
	s.mu.Unlock()
	if len(kvs) == 0 {
		return respErr(CodeBadRequest, "rpc: no disks")
	}
	effLimit := q.limit
	if effLimit <= 0 || effLimit > scanPageMax {
		effLimit = scanPageMax
	}
	horizon := "" // "" = complete everywhere
	var merged []store.ScanEntry
	anyMore := false
	for _, kv := range kvs {
		entries, more, err := kv.Scan(q.key, q.end, effLimit)
		if err != nil {
			if errors.Is(err, store.ErrOutOfService) {
				continue // like list: out-of-service disks drop out
			}
			return errResp(err)
		}
		if more {
			anyMore = true
			if len(entries) > 0 {
				if last := entries[len(entries)-1].Key; horizon == "" || last < horizon {
					horizon = last
				}
			} else {
				// A truncated page with zero survivors (every snapshot entry
				// vanished before its chunks were read): nothing past the
				// start is known complete.
				horizon = q.key
			}
		}
		merged = append(merged, entries...)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].Key < merged[j].Key })
	p := &wireResp{code: CodeOK}
	more := anyMore
	pageBytes := 0
	for _, e := range merged {
		if horizon != "" && e.Key > horizon {
			break // incomplete beyond the horizon; anyMore already set
		}
		if len(p.keys) >= effLimit || (pageBytes > scanByteBudget && len(p.keys) > 0) {
			more = true
			break
		}
		p.keys = append(p.keys, e.Key)
		p.values = append(p.values, e.Value)
		pageBytes += len(e.Key) + len(e.Value)
	}
	if more {
		if len(p.keys) > 0 {
			p.next = p.keys[len(p.keys)-1] + "\x00"
		} else {
			// Empty page but the range is not exhausted: advance past the
			// start key so the cursor always makes progress (the start itself
			// can only be missing because it vanished mid-scan).
			p.next = q.key + "\x00"
		}
	}
	return p
}

// mGet steers each key independently; each per-disk group is one GetBatch.
func (s *Server) mGet(keys []string) *wireResp {
	p := &wireResp{
		code:      CodeOK,
		itemCodes: make([]Code, len(keys)),
		values:    make([][]byte, len(keys)),
	}
	for disk, idxs := range s.groupBySteer(keys) {
		ids := make([]string, len(idxs))
		for j, i := range idxs {
			ids[j] = keys[i]
		}
		vals, errs := disk.kv.GetBatch(ids)
		for j, i := range idxs {
			p.itemCodes[i] = codeFor(errs[j])
			if errs[j] == nil {
				p.values[i] = vals[j]
			}
		}
	}
	return p
}

// mMutate implements mput (put=true) and mdelete with per-item outcomes.
func (s *Server) mMutate(keys []string, values [][]byte, put bool, durable bool, sp *obs.Span) *wireResp {
	p := &wireResp{code: CodeOK, itemCodes: make([]Code, len(keys))}
	for disk, idxs := range s.groupBySteer(keys) {
		kv := disk.kv
		if durable {
			mMutateDurableGroup(kv, keys, values, idxs, p, sp)
			continue
		}
		ids := make([]string, len(idxs))
		vals := make([][]byte, len(idxs))
		for j, i := range idxs {
			ids[j] = keys[i]
			if put {
				vals[j] = values[i]
			}
		}
		var errs []error
		if put {
			errs = kv.PutBatch(ids, vals)
		} else {
			errs = kv.DeleteBatch(ids)
		}
		for j, i := range idxs {
			p.itemCodes[i] = codeFor(errs[j])
		}
	}
	return p
}

// mMutateDurableGroup applies one steering group's puts durably: collect
// each successful put's dependency and cross the commit barrier once for
// the whole per-disk group — one leader-driven flush regardless of batch
// size. Item outcomes land at fixed indices of p.itemCodes, so the caller's
// map-iteration order over groups never becomes observable.
func mMutateDurableGroup(kv store.KV, keys []string, values [][]byte, idxs []int, p *wireResp, sp *obs.Span) {
	deps := make([]*dep.Dependency, 0, len(idxs))
	okIdx := make([]int, 0, len(idxs))
	for _, i := range idxs {
		d, err := kv.Put(keys[i], values[i])
		p.itemCodes[i] = codeFor(err)
		if err == nil {
			deps = append(deps, d)
			okIdx = append(okIdx, i)
		}
	}
	if len(deps) > 0 {
		if err := kv.WaitDurableTraced(dep.All(deps...), sp); err != nil {
			for _, i := range okIdx {
				p.itemCodes[i] = codeFor(err)
			}
		}
	}
}

// steerGroup keys groupBySteer's map by disk index with the KV captured at
// grouping time, so a concurrent return_disk swap cannot split one batch
// across two backend generations.
type steerGroup struct {
	idx int
	kv  store.KV
}

// groupBySteer partitions batch item indices by target disk. Iteration
// order of the result is irrelevant: every per-item outcome lands at the
// item's own index.
func (s *Server) groupBySteer(keys []string) map[steerGroup][]int {
	s.mu.Lock()
	kvs := append([]store.KV(nil), s.kvs...)
	s.mu.Unlock()
	byDisk := make(map[int][]int)
	for i, k := range keys {
		byDisk[s.steer(k)] = append(byDisk[s.steer(k)], i)
	}
	out := make(map[steerGroup][]int, len(byDisk))
	for d, idxs := range byDisk {
		out[steerGroup{idx: d, kv: kvs[d]}] = idxs
	}
	return out
}

// diskStats is one backend's state captured at a single point: every field
// is read back to back before the next backend is touched, so the aggregate
// view cannot interleave one disk's counters with traffic that lands
// between loop iterations over the same disk.
type diskStats struct {
	ids       []string
	inService bool
	chunks    struct{ puts, reclaims, gets uint64 }
	scrub     struct {
		rounds, repaired uint64
		lost             int
	}
}

func snapshotDisk(kv store.KV) diskStats {
	var d diskStats
	ids, err := kv.List()
	d.ids = ids
	d.inService = !errors.Is(err, store.ErrOutOfService)
	cs := kv.Chunks().Stats()
	d.chunks.puts, d.chunks.reclaims, d.chunks.gets = cs.Puts, cs.Reclaims, cs.Gets
	sc := kv.Scrubber()
	ss := sc.Stats()
	d.scrub.rounds, d.scrub.repaired = ss.Rounds, ss.Repaired
	d.scrub.lost = len(sc.LostKeys())
	return d
}

func (s *Server) stats() *Stats {
	s.mu.Lock()
	kvs := append([]store.KV(nil), s.kvs...)
	s.mu.Unlock()
	// One pass: capture each backend's complete snapshot first, then
	// aggregate, so every per-disk column in the result describes the same
	// instant for that disk.
	snaps := make([]diskStats, len(kvs))
	for i, kv := range kvs {
		snaps[i] = snapshotDisk(kv)
	}
	out := &Stats{Disks: len(kvs)}
	for _, d := range snaps {
		out.InService = append(out.InService, d.inService)
		out.ShardsPer = append(out.ShardsPer, len(d.ids))
		out.Shards += len(d.ids)
		out.ChunkPuts = append(out.ChunkPuts, d.chunks.puts)
		out.Reclaims = append(out.Reclaims, d.chunks.reclaims)
		out.GetsPerDisk = append(out.GetsPerDisk, d.chunks.gets)
		out.ScrubRounds = append(out.ScrubRounds, d.scrub.rounds)
		out.ScrubRepaired = append(out.ScrubRepaired, d.scrub.repaired)
		out.ScrubLost = append(out.ScrubLost, d.scrub.lost)
	}
	return out
}

// metrics folds the server's own registry and every backend's registry into one host-wide snapshot: counters and gauges add, histograms
// merge bucket-wise (merge order does not matter — see the associativity
// property test in internal/obs). Backends sharing one registry are folded
// once.
func (s *Server) metrics() *obs.Snapshot {
	s.mu.Lock()
	kvs := append([]store.KV(nil), s.kvs...)
	s.mu.Unlock()
	merged := s.obs.Snapshot()
	seen := map[*obs.Obs]bool{s.obs: true}
	for _, kv := range kvs {
		for _, o := range []*obs.Obs{kv.Obs(), kv.Disk().Obs()} {
			if o == nil || seen[o] {
				continue
			}
			seen[o] = true
			merged.Merge(o.Snapshot())
		}
	}
	return &merged
}

// scrubStatus snapshots one backend's scrubber state for the wire.
func scrubStatus(sc *scrub.Scrubber) *ScrubStatus {
	ss := sc.Stats()
	return &ScrubStatus{
		Rounds:         ss.Rounds,
		KeysScanned:    ss.KeysScanned,
		FramesVerified: ss.FramesVerified,
		BytesVerified:  ss.BytesVerified,
		BadReplicas:    ss.BadReplicas,
		Repaired:       ss.Repaired,
		RepairFailed:   ss.RepairFailed,
		SwapLost:       ss.SwapLost,
		Irreparable:    ss.Irreparable,
		LostShards:     sc.LostKeys(),
	}
}
