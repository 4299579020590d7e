package store

import "shardstore/internal/dep"

// KV is the minimal request/control-plane surface a per-disk backend must
// offer: the operations the shared RPC endpoint steers (§2.1) and the
// conformance harness replays. *Store satisfies it; future backends (an
// alternative index, a remote disk, a caching tier) implement this one
// interface instead of re-touching every rpc and harness call site.
//
// Mutating calls return the dependency that resolves once the operation is
// durable (nil is treated as already-durable by callers that only poll).
//
// NOTE (shardlint): implementations of KV that the conformance harness or
// the shuttle model checker will drive are *instrumented packages* in the
// sense of the syncusage pass — their internal synchronization must route
// through internal/vsync (no raw sync.Mutex/RWMutex/Cond, no bare go
// statements), or the model checker's exhaustiveness claim over them is
// silently unsound. See internal/analysis/syncusage.go.
type KV interface {
	Put(shardID string, value []byte) (*dep.Dependency, error)
	Get(shardID string) ([]byte, error)
	Delete(shardID string) (*dep.Dependency, error)
	List() ([]string, error)
	BulkCreate(ids []string, values [][]byte) (*dep.Dependency, error)
	BulkRemove(ids []string) (*dep.Dependency, error)
}

// BatchKV is the optional batched request plane. The RPC server's MGet/
// MPut/MDelete ops use it when the backend offers it and fall back to
// per-item KV calls otherwise. Unlike KV's fail-fast bulk ops, batch
// methods run every item and report per-item outcomes — the wire contract
// for the v2 multi-op frames.
type BatchKV interface {
	PutBatch(ids []string, values [][]byte) []error
	GetBatch(ids []string) ([][]byte, []error)
	DeleteBatch(ids []string) []error
}

// ScanEntry is one shard in a Scan result page. Value is the caller's own,
// like Get's result.
type ScanEntry struct {
	Key   string
	Value []byte
}

// OrderedKV is the optional ordered-map capability: backends whose key space
// supports range iteration in byte order. The RPC server's scan op probes
// for it and answers CodeUnsupported when any steered backend lacks it —
// point-only backends remain first-class KV citizens.
//
// Scan returns the live shards in [start, end) in ascending key order,
// bounded by limit (<= 0 means unbounded; empty end means unbounded). more
// reports that in-range shards beyond the limit remain; resume the cursor
// with start = lastKey + "\x00". Implementations must return a
// snapshot-consistent page: the result reflects one logical point in time
// even when flushes or compactions run concurrently.
type OrderedKV interface {
	Scan(start, end string, limit int) (entries []ScanEntry, more bool, err error)
}

var (
	_ KV        = (*Store)(nil)
	_ BatchKV   = (*Store)(nil)
	_ OrderedKV = (*Store)(nil)
)
