package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"

	"shardstore/internal/chunk"
	"shardstore/internal/dep"
	"shardstore/internal/disk"
	"shardstore/internal/extent"
	"shardstore/internal/faults"
	"shardstore/internal/lsm"
	"shardstore/internal/model"
	"shardstore/internal/obs"
	"shardstore/internal/prop"
)

// This file is the paper's Fig 3 harness: property-based conformance checking
// of the index component alone. The operation alphabet mirrors the paper's
// IndexOp enumeration — API operations first, then background operations
// (reclamation, clean reboots) that must be no-ops on the key-value mapping.

// IndexOpKind is the Fig 3 IndexOp alphabet, arranged (as §4.3 prescribes)
// in increasing order of complexity so minimization prefers early variants.
type IndexOpKind int

const (
	// IdxGet reads a key.
	IdxGet IndexOpKind = iota
	// IdxPut writes a key.
	IdxPut
	// IdxDelete removes a key.
	IdxDelete
	// IdxFlush flushes the memtable (background; no mapping change).
	IdxFlush
	// IdxCompact merges runs (background; no mapping change).
	IdxCompact
	// IdxReclaim garbage-collects one extent (background).
	IdxReclaim
	// IdxReboot performs a clean reboot of the index (background).
	IdxReboot

	numIndexOpKinds
)

func (k IndexOpKind) String() string {
	switch k {
	case IdxGet:
		return "Get"
	case IdxPut:
		return "Put"
	case IdxDelete:
		return "Delete"
	case IdxFlush:
		return "Flush"
	case IdxCompact:
		return "Compact"
	case IdxReclaim:
		return "Reclaim"
	case IdxReboot:
		return "Reboot"
	default:
		return fmt.Sprintf("IndexOpKind(%d)", int(k))
	}
}

// IndexOp is one operation of the Fig 3 test.
type IndexOp struct {
	Kind  IndexOpKind
	Key   string
	Value []byte
}

func (o IndexOp) String() string {
	switch o.Kind {
	case IdxPut:
		return fmt.Sprintf("Put(%q, %dB)", o.Key, len(o.Value))
	case IdxGet, IdxDelete:
		return fmt.Sprintf("%s(%q)", o.Kind, o.Key)
	default:
		return o.Kind.String()
	}
}

// IndexConfig tunes the Fig 3 conformance run.
type IndexConfig struct {
	Seed       int64
	Cases      int
	OpsPerCase int
	Bias       Bias
	Bugs       *faults.Set
	Minimize   bool
	// Workers is the number of pool workers cases fan out across; 0 means
	// one per CPU. Results are bit-identical at any worker count.
	Workers int
}

func (c IndexConfig) withDefaults() IndexConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Cases == 0 {
		c.Cases = 200
	}
	if c.OpsPerCase == 0 {
		c.OpsPerCase = 30
	}
	if c.Bugs == nil {
		c.Bugs = faults.NewSet()
	}
	return c
}

// IndexFailure reports a failing Fig 3 sequence.
type IndexFailure struct {
	Case      int
	Seed      int64
	Seq       []IndexOp
	Minimized []IndexOp
	Err       error
}

// IndexResult summarizes a Fig 3 run.
type IndexResult struct {
	Cases   int
	Ops     int64
	Failure *IndexFailure
	// Probes sums the coverage-probe hits of the cases a sequential run
	// executes (see Result.Probes).
	Probes obs.Probes
}

// indexSUT is the index implementation stack under test: the real LSM tree
// over the real chunk store over the in-memory disk.
type indexSUT struct {
	d     *disk.Disk
	sched *dep.Scheduler
	em    *extent.Manager
	cs    *chunk.Store
	tree  *lsm.Tree
	bugs  *faults.Set
	obs   *obs.Obs
}

// idxResolver lets reclamation reverse-look-up data chunks through the tree
// itself (the tree stores raw values here, so there are no data chunks —
// only index runs — but the resolver contract must still be satisfied).
type idxNoDataResolver struct{}

func (idxNoDataResolver) ChunkLive(string, chunk.Locator) bool { return false }
func (idxNoDataResolver) RelocateChunk(string, chunk.Locator, chunk.Locator, *dep.Dependency) (bool, *dep.Dependency, error) {
	return false, nil, nil
}
func (idxNoDataResolver) SyncReferences() (*dep.Dependency, error) { return dep.Resolved(), nil }

func newIndexSUT(cfg IndexConfig, o *obs.Obs) (*indexSUT, error) {
	dcfg := disk.DefaultConfig()
	dcfg.Obs = o
	d, err := disk.New(dcfg)
	if err != nil {
		return nil, err
	}
	s := &indexSUT{d: d, bugs: cfg.Bugs, obs: o}
	if err := s.open(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *indexSUT) open() error {
	s.sched = dep.NewScheduler(s.d, dep.Options{Obs: s.obs})
	em, err := extent.Recover(s.sched, extent.Config{}, s.bugs)
	if err != nil {
		return err
	}
	s.em = em
	s.cs = chunk.NewStore(em, chunk.Config{CacheCapacity: 16, Obs: s.obs}, 7, s.bugs)
	ms, err := lsm.NewExtentMetaStore(s.sched, extent.MetaExtent, lsm.MaxMetaPayload(0))
	if err != nil {
		return err
	}
	tree, err := lsm.NewTree(s.cs, ms, s.sched, lsm.Config{ResetHappened: em.ResetHappened, Obs: s.obs}, s.bugs)
	if err != nil {
		return err
	}
	s.tree = tree
	s.cs.RegisterResolver(chunk.TagIndexRun, lsm.RunResolver{Tree: tree})
	s.cs.RegisterResolver(chunk.TagData, idxNoDataResolver{})
	return nil
}

// reboot is the clean-reboot background op: quiesce, then rebuild the whole
// stack from disk.
func (s *indexSUT) reboot() error {
	if _, err := s.tree.Shutdown(); err != nil {
		return err
	}
	if _, err := s.em.Flush(); err != nil {
		return err
	}
	if err := s.sched.Pump(); err != nil {
		return err
	}
	if _, err := s.em.Flush(); err != nil {
		return err
	}
	if err := s.sched.Pump(); err != nil {
		return err
	}
	return s.open()
}

// GenerateIndexSeq produces one random Fig 3 sequence with §4.2 biasing.
func GenerateIndexSeq(r *rand.Rand, cfg IndexConfig) []IndexOp {
	st := &genState{}
	ops := make([]IndexOp, 0, cfg.OpsPerCase)
	weights := []int{25, 30, 10, 10, 6, 8, 5} // Get..Reboot
	total := 0
	for _, w := range weights {
		total += w
	}
	for i := 0; i < cfg.OpsPerCase; i++ {
		pick := r.Intn(total)
		kind := IndexOpKind(0)
		for j, w := range weights {
			if pick < w {
				kind = IndexOpKind(j)
				break
			}
			pick -= w
		}
		op := IndexOp{Kind: kind}
		switch kind {
		case IdxGet, IdxDelete:
			op.Key = genKey(r, cfg.Bias, st, false)
		case IdxPut:
			op.Key = genKey(r, cfg.Bias, st, true)
			st.keys = append(st.keys, op.Key)
			n := r.Intn(24)
			op.Value = make([]byte, n)
			for j := range op.Value {
				op.Value[j] = byte(r.Intn(256))
			}
		}
		ops = append(ops, op)
	}
	return ops
}

// RunIndexSeq applies one sequence in lockstep to the implementation and the
// reference index (Fig 3's proptest body), comparing results per operation
// and checking the full key-value mapping invariant after each.
func RunIndexSeq(seq []IndexOp, cfg IndexConfig) (int, error) {
	return runIndexSeq(context.Background(), seq, cfg, obs.New(nil).WithProbes())
}

// runIndexSeq is RunIndexSeq on the node instrumented by o, with cooperative
// cancellation between operations; see RunSeqCtx.
func runIndexSeq(ctx context.Context, seq []IndexOp, cfg IndexConfig, o *obs.Obs) (int, error) {
	cfg = cfg.withDefaults()
	impl, err := newIndexSUT(cfg, o)
	if err != nil {
		return 0, err
	}
	ref := model.NewRefIndex()
	for i, op := range seq {
		if cerr := ctx.Err(); cerr != nil {
			return i, fmt.Errorf("%w: %w", errCaseCancelled, cerr)
		}
		if err := applyIndexOp(impl, ref, op); err != nil {
			return i, fmt.Errorf("op %d %s: %w", i, op, err)
		}
		if err := checkIndexEquivalence(impl, ref); err != nil {
			return i, fmt.Errorf("after op %d %s: %w", i, op, err)
		}
	}
	return len(seq), nil
}

func applyIndexOp(impl *indexSUT, ref *model.RefIndex, op IndexOp) error {
	switch op.Kind {
	case IdxGet:
		// compare_results (Fig 3): the implementation and the model must
		// agree on both the value and the error.
		iv, ierr := impl.tree.Get(op.Key)
		rv, rerr := ref.Get(op.Key)
		if (ierr == nil) != (rerr == nil) {
			return fmt.Errorf("Get disagreement: impl=%v ref=%v", ierr, rerr)
		}
		if ierr != nil && !errors.Is(ierr, lsm.ErrNotFound) {
			return fmt.Errorf("Get failed: %w", ierr)
		}
		if ierr == nil && !bytes.Equal(iv, rv) {
			return fmt.Errorf("Get value mismatch: impl=%x ref=%x", iv, rv)
		}
		return nil
	case IdxPut:
		if _, err := impl.tree.Put(op.Key, op.Value); err != nil {
			return err
		}
		_, _ = ref.Put(op.Key, op.Value)
		return nil
	case IdxDelete:
		if _, err := impl.tree.Delete(op.Key); err != nil {
			return err
		}
		_, _ = ref.Delete(op.Key)
		return nil
	case IdxFlush:
		_, err := impl.tree.Flush()
		return err
	case IdxCompact:
		return impl.tree.Compact()
	case IdxReclaim:
		// Background reclamation: a no-op on the reference model.
		_, err := impl.cs.ReclaimAuto()
		if errors.Is(err, chunk.ErrBusy) || errors.Is(err, chunk.ErrAborted) {
			return nil
		}
		return err
	case IdxReboot:
		return impl.reboot()
	default:
		return fmt.Errorf("unknown index op %v", op.Kind)
	}
}

// checkIndexEquivalence is Fig 3's check_invariants: both systems hold the
// same key-value mapping.
func checkIndexEquivalence(impl *indexSUT, ref *model.RefIndex) error {
	refKeys, _ := ref.Keys()
	implKeys, _, err := impl.tree.Keys("", "", 0)
	if err != nil {
		return fmt.Errorf("impl Keys: %w", err)
	}
	if len(refKeys) != len(implKeys) {
		return fmt.Errorf("key sets differ: impl=%v ref=%v", implKeys, refKeys)
	}
	for i := range refKeys {
		if refKeys[i] != implKeys[i] {
			return fmt.Errorf("key sets differ: impl=%v ref=%v", implKeys, refKeys)
		}
	}
	for _, k := range refKeys {
		rv, _ := ref.Get(k)
		iv, err := impl.tree.Get(k)
		if err != nil {
			return fmt.Errorf("impl lost %q: %w", k, err)
		}
		if !bytes.Equal(rv, iv) {
			return fmt.Errorf("value mismatch on %q", k)
		}
	}
	return nil
}

// ShrinkIndexOp yields simpler variants for minimization.
func ShrinkIndexOp(op IndexOp) []IndexOp {
	var out []IndexOp
	if len(op.Value) > 0 {
		v := op
		v.Value = op.Value[:len(op.Value)/2]
		out = append(out, v)
	}
	if op.Kind > IdxGet && op.Kind != IdxPut {
		v := op
		v.Kind = IdxGet
		v.Key = "k00"
		out = append(out, v)
	}
	return out
}

// RunIndexConformance is the Fig 3 entry point: Cases random sequences on
// the worker pool (cfg.Workers; 0 = one per CPU), the first — lowest-index —
// failure minimized. As with Run, the IndexResult is bit-identical at any
// worker count.
func RunIndexConformance(cfg IndexConfig) IndexResult {
	cfg = cfg.withDefaults()
	outcomes := runPool(cfg.Workers, cfg.Cases, func(ctx context.Context, i int) caseOutcome {
		r := rand.New(rand.NewSource(prop.CaseSeed(cfg.Seed, i)))
		seq := GenerateIndexSeq(r, cfg)
		o := obs.New(nil).WithProbes()
		n, err := runIndexSeq(ctx, seq, cfg, o)
		return caseOutcome{ops: n, probes: o.Snapshot().Probes, err: err}
	})

	res := IndexResult{}
	for i, out := range outcomes {
		res.Cases++
		res.Ops += int64(out.ops)
		res.Probes.Merge(out.probes)
		if out.err == nil {
			continue
		}
		seed := prop.CaseSeed(cfg.Seed, i)
		seq := GenerateIndexSeq(rand.New(rand.NewSource(seed)), cfg)
		f := &IndexFailure{Case: i, Seed: seed, Seq: seq, Minimized: seq, Err: out.err}
		if cfg.Minimize {
			fails := func(cand []IndexOp) bool {
				_, cerr := RunIndexSeq(cand, cfg)
				return cerr != nil
			}
			f.Minimized = prop.MinimizeSeq(seq, fails, ShrinkIndexOp, shrinkBudget)
		}
		res.Failure = f
	}
	return res
}
