package analysis_test

import (
	"testing"

	"shardstore/internal/analysis"
)

// Each fixture demonstrates at least one true positive per check and one
// //shardlint:allow suppression, compiled in-memory against the overlay —
// no files on disk, no dependence on the real tree's state.

func TestSyncUsageFixture(t *testing.T) {
	runFixture(t, analysis.SyncUsage, "shardstore/internal/store", map[string]string{
		"fix.go": `package store

import "sync"

type wrapped struct {
	mu sync.Mutex // want "raw sync.Mutex"
}

var cond = sync.NewCond(nil) // want "raw sync.NewCond"

func spawn(f func()) {
	var rw sync.RWMutex // want "raw sync.RWMutex"
	_ = rw
	go f() // want "bare go statement"
	//shardlint:allow syncusage metrics flusher runs outside the model-checked surface
	go f()
}
`,
		"fix_test.go": `package store

import "testing"

func TestParallelForbidden(t *testing.T) {
	t.Parallel() // want "t.Parallel in an instrumented package"
}

func TestParallelWaived(t *testing.T) {
	t.Parallel() //shardlint:allow syncusage fixture demonstrating the suppression path
}
`,
	}, nil)
}

// TestSyncUsageOutOfScope checks the pass keys on the package path: the
// identical source outside the instrumented set reports nothing.
func TestSyncUsageOutOfScope(t *testing.T) {
	runFixture(t, analysis.SyncUsage, "shardstore/internal/experiments", map[string]string{
		"fix.go": `package experiments

import "sync"

type gauge struct {
	mu sync.Mutex
}

func spawn(f func()) { go f() }
`,
	}, nil)
}

func TestDeterminismFixture(t *testing.T) {
	runFixture(t, analysis.Determinism, "shardstore/internal/core", map[string]string{
		"fix.go": `package core

import (
	"math/rand"
	"time"
)

func timing() time.Duration {
	start := time.Now() // want "time.Now in deterministic package"
	return time.Since(start) // want "time.Since in deterministic package"
}

func deadline() time.Time {
	at := time.Now() //shardlint:allow determinism operator-facing wall-clock deadline, not replayed
	return at
}

func draw() int64 {
	rng := rand.New(rand.NewSource(42))
	n := int64(rng.Intn(10)) // methods on a seeded generator are fine
	return n + rand.Int63() // want "global math/rand.Int63"
}
`,
	}, nil)
}

func TestMapIterFixture(t *testing.T) {
	runFixture(t, analysis.MapIter, "shardstore/internal/model", map[string]string{
		"fix.go": `package model

import (
	"fmt"
	"sort"
)

func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k) // sorted below the loop: not flagged
	}
	sort.Strings(out)
	return out
}

func unsortedKeys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want "appending to out while ranging over a map"
	}
	return out
}

func copyInto(m map[string][]byte) map[string][]byte {
	out := make(map[string][]byte, len(m))
	for k, v := range m {
		out[k] = append([]byte(nil), v...) // fresh copy into a map slot: not flagged
	}
	return out
}

func dump(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want "fmt.Println inside map iteration"
	}
}

func drain(m map[string]int, ch chan int) {
	for _, v := range m {
		ch <- v // want "channel send inside map iteration"
	}
}

func scratch(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) //shardlint:allow mapiter consumed as a set downstream, order never observed
	}
	return out
}

func count(m map[string]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}
`,
	}, nil)
}

func TestDroppedErrFixture(t *testing.T) {
	fakeDisk := map[string]string{
		"disk.go": `package disk

type Disk struct{}

func New(pages int) (*Disk, error)                    { return &Disk{}, nil }
func (d *Disk) Sync() error                           { return nil }
func (d *Disk) WriteAt(off int, b []byte) error       { return nil }
func (d *Disk) ReadAt(off int, b []byte) (int, error) { return 0, nil }
func (d *Disk) Pages() int                            { return 0 }
`,
	}
	runFixture(t, analysis.DroppedErr, "shardstore/internal/core", map[string]string{
		"fix.go": `package core

import "shardstore/internal/disk"

func use(d *disk.Disk) int {
	d.Sync()                 // want "Sync discarded"
	_ = d.WriteAt(0, nil)    // want "WriteAt discarded into _"
	_, _ = d.ReadAt(0, nil)  // want "ReadAt discarded into _"
	go d.Sync()              // want "discarded by go statement"
	defer d.Sync()           // want "discarded by defer"
	n, _ := d.ReadAt(0, nil) // want "ReadAt discarded into _"
	//shardlint:allow droppederr crash-injection helper, failure surfaced by the harness verdict
	d.Sync()
	if err := d.Sync(); err != nil { // handled: not flagged
		return 0
	}
	return n + d.Pages()
}
`,
	}, map[string]map[string]string{"shardstore/internal/disk": fakeDisk})
}
