package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// spanName indexes spanNames: the layer boundaries the driver calls across.
type spanName uint8

const (
	spOp spanName = iota
	spTick
	spStoreGet
	spStorePut
	spStoreDelete
	spStoreScan
	spStoreWait
	spStoreOpen
	spLsmFlush
	spExtentFlush
	spChunkReclaim
	spSchedStep
	spDiskSync
	spCompact
	spRPCClient
	spCoreCase
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op", "tick",
	"store.get", "store.put", "store.delete", "store.scan", "store.wait_durable", "store.open",
	"lsm.flush", "extent.flush", "chunk.reclaim", "sched.step", "disk.sync", "compact.step",
	"rpc.client_call", "core.case",
}

// span is one interval at a layer boundary. IDs are 1-based positions in the
// recorder; parent 0 means a root, op 0 means no foreground op (a tick, or a
// server-side call the driver cannot tie to its request from outside).
type span struct {
	name       spanName
	start, end int64 // ns since the recorder was made
	parent, op uint32
}

// recorder keeps a traced pass's spans in memory. A nil recorder, or one
// that is switched off (warm-up), records nothing and hands out id 0.
type recorder struct {
	on    atomic.Bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder(capacity int) *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, capacity)}
}

func (r *recorder) start(name spanName, parent, op uint32) uint32 {
	if r == nil || !r.on.Load() {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans = append(r.spans, span{name: name, start: now, parent: parent, op: op})
	id := uint32(len(r.spans))
	r.mu.Unlock()
	return id
}

func (r *recorder) finish(id uint32) {
	if id == 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].end = now
	r.mu.Unlock()
}

// spanStat sums one name's spans. Self time is duration minus the part the
// span's children cover; the driver's children never overlap each other.
type spanStat struct {
	n           int64
	total, self time.Duration
}

func (s spanStat) meanUs() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.total) / float64(s.n) / 1e3
}

func (s spanStat) totalMs() float64 { return float64(s.total) / 1e6 }

func (r *recorder) stats() [numSpanNames]spanStat {
	var out [numSpanNames]spanStat
	if r == nil {
		return out
	}
	covered := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.parent != 0 {
			covered[s.parent-1] += s.end - s.start
		}
	}
	for i, s := range r.spans {
		st := &out[s.name]
		st.n++
		st.total += time.Duration(s.end - s.start)
		st.self += time.Duration(s.end - s.start - covered[i])
	}
	return out
}

// writeJSON writes every span, preceded by the per-name totals.
func (r *recorder) writeJSON(path, workload string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"unit\":\"ns\",\"summary\":{", workload)
	first := true
	for name, st := range r.stats() {
		if st.n == 0 {
			continue
		}
		if !first {
			w.WriteByte(',')
		}
		first = false
		fmt.Fprintf(w, "%q:{\"n\":%d,\"total\":%d,\"self\":%d}", spanNames[name], st.n, st.total, st.self)
	}
	w.WriteString("},\"spans\":[\n")
	var buf []byte
	for i, s := range r.spans {
		buf = append(buf[:0], `{"id":`...)
		buf = strconv.AppendInt(buf, int64(i+1), 10)
		buf = append(buf, `,"name":"`...)
		buf = append(buf, spanNames[s.name]...)
		buf = append(buf, `","start":`...)
		buf = strconv.AppendInt(buf, s.start, 10)
		buf = append(buf, `,"end":`...)
		buf = strconv.AppendInt(buf, s.end, 10)
		buf = append(buf, `,"parent":`...)
		buf = strconv.AppendUint(buf, uint64(s.parent), 10)
		buf = append(buf, `,"op":`...)
		buf = strconv.AppendUint(buf, uint64(s.op), 10)
		buf = append(buf, '}')
		if i+1 < len(r.spans) {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n')
		w.Write(buf)
	}
	w.WriteString("]}\n")
	return w.Flush()
}
