package store

import (
	"shardstore/internal/chunk"
	"shardstore/internal/dep"
	"shardstore/internal/disk"
	"shardstore/internal/obs"
	"shardstore/internal/scrub"
)

// KV is the per-disk backend the shared RPC endpoint steers request-plane
// and control-plane operations to (§2.1): exactly the methods the server and
// the conformance harness call. *Store is the one implementation; KV is an
// interface only so a caller can wrap a store (a tracing shim, a test gate)
// and hand the wrapper to the server.
//
// Mutating calls return the dependency that resolves once the operation is
// durable (nil is treated as already-durable by callers that only poll).
//
// Batch methods run every item and report per-item outcomes — the wire
// contract for the v2 multi-op frames. The fail-fast control-plane bulk
// operations are the server's loops over Put and Delete.
//
// Scan returns the live shards in [start, end) in ascending key order,
// bounded by limit (<= 0 means unbounded; empty end means unbounded). more
// reports that in-range shards beyond the limit remain; resume the cursor
// with start = lastKey + "\x00". The page is snapshot-consistent: it
// reflects one logical point in time even when flushes or compactions run
// concurrently. List is the same page with the values dropped.
//
// NOTE (shardlint): a wrapper the conformance harness or the shuttle model
// checker will drive is an *instrumented package* in the sense of the
// syncusage pass — its synchronization must route through internal/vsync (no
// raw sync.Mutex/RWMutex/Cond, no bare go statements), or the model
// checker's exhaustiveness claim over it is silently unsound. See
// internal/analysis/syncusage.go.
type KV interface {
	Put(shardID string, value []byte) (*dep.Dependency, error)
	Get(shardID string) ([]byte, error)
	Delete(shardID string) (*dep.Dependency, error)
	List(start, end string, limit int) (ids []string, more bool, err error)

	PutBatch(ids []string, values [][]byte) []error
	GetBatch(ids []string) ([][]byte, []error)
	DeleteBatch(ids []string) []error
	Scan(start, end string, limit int) (entries []ScanEntry, more bool, err error)

	WaitDurableTraced(d *dep.Dependency, sp *obs.Span) error
	Pump() error
	RemoveFromService() error
	ReturnToService() (*Store, error)

	ScrubRound() (scrub.Result, error)
	Scrubber() *scrub.Scrubber
	Chunks() *chunk.Store
	Obs() *obs.Obs
	Disk() *disk.Disk
}

// ScanEntry is one shard in a Scan result page. Value is the caller's own,
// like Get's result.
type ScanEntry struct {
	Key   string
	Value []byte
}

var _ KV = (*Store)(nil)
