package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"shardstore/internal/chunk"
	"shardstore/internal/disk"
	"shardstore/internal/extent"
	"shardstore/internal/faults"
	"shardstore/internal/model"
	"shardstore/internal/obs"
	"shardstore/internal/prop"
	"shardstore/internal/store"
)

// Config tunes a conformance run (the §4 property-based test).
type Config struct {
	// Seed roots the whole run; 0 means 1.
	Seed int64
	// Cases is the number of random op sequences (default 200).
	Cases int
	// OpsPerCase is the sequence length (default 40).
	OpsPerCase int
	// Bias tunes argument selection (§4.2).
	Bias Bias
	// StoreConfig configures the system under test. Bugs and Obs inside it
	// are honored; a sequence given no Obs runs on a private one with
	// coverage probes on.
	StoreConfig store.Config
	// EnableCrashes includes DirtyReboot in the alphabet (§5).
	EnableCrashes bool
	// EnableReboots includes CleanReboot in the alphabet.
	EnableReboots bool
	// EnableFailures includes IO failure injection (§4.4).
	EnableFailures bool
	// EnableControlPlane includes List/RemoveDisk/ReturnDisk.
	EnableControlPlane bool
	// EnableScrub includes integrity-scrub rounds in the alphabet.
	EnableScrub bool
	// EnableGroupCommit includes PutDurable in the alphabet: a put that
	// blocks on the scheduler's group-commit barrier until durable.
	EnableGroupCommit bool
	// EnableCompaction includes CompactStep in the alphabet: one leveled
	// compaction (plan + merge + manifest-generation swap) applied without a
	// durability wait, so the interleaved crash ops explore the window
	// between the swap being staged and reaching the media.
	EnableCompaction bool
	// EnableScan includes Scan in the alphabet: an ordered range read over
	// [Key, Key2) checked against the model's ordered-map semantics — the
	// snapshot-consistency property scans must keep while flushes,
	// compaction steps, crashes, and scrub interleave.
	EnableScan bool
	// EnableCorruption includes silent-corruption injection (RotReplica /
	// RotAll). It arms FaultSilentCorruption in the store's fault set and
	// defaults StoreConfig.Replicas to 2, so the checked property is the
	// scrub contract: k < R rotted copies never cost readability, k = R is
	// reported as loss rather than silently served.
	EnableCorruption bool
	// ExhaustiveCrash enumerates block-level crash states at each
	// DirtyReboot instead of sampling one (§5, the BOB/CrashMonkey-style
	// variant). Exponential in dirty pages; bounded at exhaustiveCap (64)
	// states per reboot.
	ExhaustiveCrash bool
	// Minimize shrinks failing sequences (§4.3). Default true via Run.
	Minimize bool
	// Workers is the number of pool workers cases fan out across (see
	// pool.go); 0 means one per CPU (runtime.GOMAXPROCS). Results are
	// bit-identical at any worker count: same seed + same case count ⇒ same
	// Result. Use 1 to force sequential execution.
	Workers int
}

const (
	// shrinkBudget bounds replays during minimization.
	shrinkBudget = 2000
	// invariantEvery is how many ops pass between full model/implementation
	// equivalence checks; a sequence always ends with one.
	invariantEvery = 4
	// exhaustiveCap bounds the crash states ExhaustiveCrash enumerates per
	// reboot.
	exhaustiveCap = 64
)

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Cases == 0 {
		c.Cases = 200
	}
	if c.OpsPerCase == 0 {
		c.OpsPerCase = 40
	}
	if c.StoreConfig.Disk.PageSize == 0 {
		c.StoreConfig.Disk = disk.DefaultConfig()
	}
	if c.StoreConfig.Bugs == nil {
		c.StoreConfig.Bugs = faults.NewSet()
	}
	if c.EnableCorruption {
		if c.StoreConfig.Replicas == 0 {
			c.StoreConfig.Replicas = 2
		}
		c.StoreConfig.Bugs.Enable(faults.FaultSilentCorruption)
		if c.StoreConfig.Disk.Faults == nil {
			c.StoreConfig.Disk.Faults = c.StoreConfig.Bugs
		}
	}
	if c.Bias.UUIDZeroBias > 0 && c.StoreConfig.UUIDZeroBias == 0 {
		c.StoreConfig.UUIDZeroBias = c.Bias.UUIDZeroBias
	}
	return c
}

// Failure reports one failing sequence.
type Failure struct {
	Case      int
	Seed      int64
	Seq       []Op
	Minimized []Op
	Err       error
	// MinimizedErr is the violation the minimized sequence produces (it may
	// differ in wording from Err while exposing the same bug).
	MinimizedErr error
	// Trace is the minimized sequence replayed once more with spans on: one
	// span per op (covering the op and the invariant check that follows it)
	// plus a final "check" span. Background windows — syncs, reclamation,
	// compaction, scrub, injected faults, rot, crashes — are stamped on the
	// op they overlapped, and the span where the violation surfaced carries
	// its full text as a "harness" note. TraceTruncated counts spans the
	// tracer overwrote (0: the replay's tracer holds every span).
	Trace          []obs.ReqTrace
	TraceTruncated uint64
}

// FormatTrace renders the failure's trace in logical-clock ticks (empty
// string when none was captured).
func (f *Failure) FormatTrace() string {
	if f == nil || len(f.Trace) == 0 {
		return ""
	}
	return obs.FormatTraceDump(f.Trace, f.TraceTruncated, obs.UnitTicks)
}

// Result summarizes a conformance run.
type Result struct {
	Cases   int
	Ops     int64
	Crashes int64
	Failure *Failure
	// Probes sums the coverage-probe hits (§4.2) of the cases a sequential
	// run executes. Only cases the harness gave their own Obs (the caller
	// set no StoreConfig.Obs) contribute.
	Probes obs.Probes
}

// Run executes the conformance check: Cases random sequences, each applied
// in lockstep to a fresh store and reference model. Cases fan out across
// cfg.Workers pool workers (default: one per CPU); because every case builds
// its own disk+store and derives its RNG from the root seed and case index,
// the Result — pass/fail, failing case index, minimized sequence, and
// probe totals — is bit-identical at any worker count. The first (i.e.
// lowest-index) failure is minimized and returned; nil Failure means every
// case passed (which, as §8.3 reminds us, "does not mean the code is
// correct, only that the checker could not find a bug").
func Run(cfg Config) Result {
	cfg = cfg.withDefaults()
	outcomes := runPool(cfg.Workers, cfg.Cases, func(ctx context.Context, i int) caseOutcome {
		// Each case records probes into a private Obs; the merge loop below
		// folds in exactly the cases a sequential run would have executed,
		// keeping totals independent of worker count.
		ccfg := cfg
		var o *obs.Obs
		if ccfg.StoreConfig.Obs == nil {
			o = obs.New(nil).WithProbes()
			ccfg.StoreConfig.Obs = o
		}
		seq := GenerateSeq(prop.Reseed(nil, prop.CaseSeed(cfg.Seed, i)), ccfg)
		ops, crashes, err := RunSeqCtx(ctx, seq, ccfg)
		return caseOutcome{ops: ops, crashes: crashes, probes: o.Snapshot().Probes, err: err}
	})

	res := Result{}
	for i, out := range outcomes {
		res.Cases++
		res.Ops += int64(out.ops)
		res.Crashes += int64(out.crashes)
		res.Probes.Merge(out.probes)
		if out.err == nil {
			continue
		}
		// The failing case is by construction the last (and lowest-index)
		// outcome; regenerate its sequence from the root seed and minimize it
		// sequentially, exactly as the sequential loop did.
		seed := prop.CaseSeed(cfg.Seed, i)
		seq := GenerateSeq(prop.Reseed(nil, seed), cfg)
		f := &Failure{Case: i, Seed: seed, Seq: seq, Minimized: seq, Err: out.err, MinimizedErr: out.err}
		if cfg.Minimize {
			fails := func(cand []Op) bool {
				_, _, cerr := RunSeq(cand, cfg)
				return cerr != nil
			}
			f.Minimized = prop.MinimizeSeq(seq, fails, ShrinkOp, shrinkBudget)
			if _, _, merr := RunSeq(f.Minimized, cfg); merr != nil {
				f.MinimizedErr = merr
			}
		}
		// Replay the minimized counterexample once more with spans on, one
		// per op plus the final check, so the report says which layers each
		// op touched. Tracing is verdict-transparent (the determinism gate
		// enforces it), so this replay reproduces the same violation.
		tcfg := cfg
		tcfg.StoreConfig.Obs = obs.New(nil).WithSpans(len(f.Minimized)+1, 0)
		RunSeq(f.Minimized, tcfg)
		f.Trace, f.TraceTruncated = tcfg.StoreConfig.Obs.Tracer().Completed()
		res.Failure = f
	}
	return res
}

// execState is the per-sequence mutable state.
type execState struct {
	cfg       Config
	d         *disk.Disk
	st        *store.Store
	ref       *model.RefStore
	inService bool
	opsRun    int
	crashes   int
	// injected counts FailDiskOnce ops; outstanding() compares it with the
	// disk's consumed-fault counter to decide whether a read error can still
	// be blamed on the environment. The counter lives in StoreConfig.Obs,
	// which callers may reuse across sequences, so consumption is measured
	// from consumedBase, its value when this sequence started.
	injected     uint64
	consumedBase uint64
	// rng is the sequence's one crash and rot generator; see crashRand.
	rng *rand.Rand
}

// crashRand returns the generator a dirty reboot or a rot op draws from,
// seeded as a newly constructed one would be (prop.Reseed).
func (es *execState) crashRand(seed int64) *rand.Rand {
	es.rng = prop.Reseed(es.rng, seed)
	return es.rng
}

// outstanding returns the number of injected faults that have not yet fired.
func (es *execState) outstanding() uint64 {
	consumed := es.d.Stats().InjectedErrs - es.consumedBase
	if consumed >= es.injected {
		return 0
	}
	return es.injected - consumed
}

// RunSeq applies one operation sequence and returns (ops applied, crashes
// taken, first violation).
func RunSeq(seq []Op, cfg Config) (int, int, error) {
	return RunSeqCtx(context.Background(), seq, cfg)
}

// RunSeqCtx is RunSeq with cooperative cancellation: the sequence is
// abandoned between operations once ctx is done, returning an error that
// wraps both errCaseCancelled and the context's cause. The parallel pool
// uses this for early exit — once a lower-index case has failed, in-flight
// higher-index cases cannot affect the Result and are cut short.
func RunSeqCtx(ctx context.Context, seq []Op, cfg Config) (int, int, error) {
	ops, crashes, _, err := runSeqDisk(ctx, seq, cfg)
	return ops, crashes, err
}

// RunSeqDisk is RunSeq but additionally returns the disk the sequence ran
// against, so callers (e.g. the observability determinism gate) can compare
// final durable images across runs.
func RunSeqDisk(seq []Op, cfg Config) (int, int, *disk.Disk, error) {
	return runSeqDisk(context.Background(), seq, cfg)
}

func runSeqDisk(ctx context.Context, seq []Op, cfg Config) (int, int, *disk.Disk, error) {
	cfg = cfg.withDefaults()
	if cfg.StoreConfig.Obs == nil {
		cfg.StoreConfig.Obs = obs.New(nil).WithProbes()
	}
	st, d, err := store.New(cfg.StoreConfig)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("harness: store setup: %w", err)
	}
	es := &execState{cfg: cfg, d: d, st: st, ref: model.NewRefStore(cfg.StoreConfig.Bugs), inService: true,
		consumedBase: d.Stats().InjectedErrs}
	tr := cfg.StoreConfig.Obs.Tracer()
	for i, op := range seq {
		if cerr := ctx.Err(); cerr != nil {
			return es.opsRun, es.crashes, es.d, fmt.Errorf("%w: %w", errCaseCancelled, cerr)
		}
		var sp *obs.Span
		if tr != nil {
			sp = tr.Start(0, op.String(), "")
		}
		err := es.step(i, op)
		finishSpan(sp, err)
		if err != nil {
			return es.opsRun, es.crashes, es.d, err
		}
	}
	sp := tr.Start(0, "check", "")
	err = es.checkInvariants()
	if err != nil {
		err = fmt.Errorf("final check: %w", err)
	}
	finishSpan(sp, err)
	return es.opsRun, es.crashes, es.d, err
}

// step applies seq[i] = op and, every invariantEvery ops, the full
// equivalence check, returning the violation wrapped with the op it follows.
func (es *execState) step(i int, op Op) error {
	if err := es.apply(op); err != nil {
		return fmt.Errorf("op %d %s: %w", i, op, err)
	}
	es.opsRun++
	if (i+1)%invariantEvery == 0 {
		if err := es.checkInvariants(); err != nil {
			return fmt.Errorf("after op %d %s: %w", i, op, err)
		}
	}
	return nil
}

// finishSpan closes a harness span, first annotating it with the violation
// that surfaced in it.
func finishSpan(sp *obs.Span, err error) {
	if sp != nil && err != nil {
		sp.Annotate("harness", err.Error())
	}
	sp.Finish()
}

// reopen recovers a store on the disk, retrying a few times because a
// pending injected transient fault can fail the first recovery attempt
// (transients clear once they fire).
func (es *execState) reopen() (*store.Store, error) {
	var err error
	for attempt := 0; attempt < 4; attempt++ {
		var ns *store.Store
		ns, err = store.Open(es.d, es.cfg.StoreConfig)
		if err == nil {
			return ns, nil
		}
		if !es.ref.HasFailed() {
			break
		}
	}
	return nil, err
}

// implRead adapts store.Get to the model's read signature: (nil, nil) for
// not-found, error only for conclusive failures. Transient injected faults
// are retried through — they fire once — so an error returned here means the
// data is genuinely unreadable.
func (es *execState) implRead(key string) ([]byte, error) {
	var err error
	for attempt := 0; attempt < 4; attempt++ {
		pending := es.outstanding() > 0
		var v []byte
		v, err = es.st.Get(key)
		if errors.Is(err, store.ErrNotFound) {
			return nil, nil
		}
		if err == nil {
			return v, nil
		}
		if !pending {
			return nil, err
		}
	}
	return nil, err
}

// implScan adapts store.Scan to the model check, retrying through
// transient injected faults exactly like implRead: they fire once, so an
// error that survives the retries is conclusive.
func (es *execState) implScan(start, end string, limit int) ([]store.ScanEntry, bool, error) {
	var (
		entries []store.ScanEntry
		more    bool
		err     error
	)
	for attempt := 0; attempt < 4; attempt++ {
		pending := es.outstanding() > 0
		entries, more, err = es.st.Scan(start, end, limit)
		if err == nil {
			return entries, more, nil
		}
		if !pending {
			return nil, false, err
		}
	}
	return nil, false, err
}

// rangeRotted reports whether any model key in [start, end) may still hold
// its rotted-era entry. A scan reads every in-range shard's data, so one
// fully rotted shard is allowed to fail the whole page — the same "fail by
// returning no data, never the wrong data" license CheckRead grants point
// reads.
func (es *execState) rangeRotted(start, end string) bool {
	for _, k := range es.ref.Keys() {
		if k < start || (end != "" && k >= end) {
			continue
		}
		if es.ref.Rotted(k) {
			return true
		}
	}
	return false
}

// benignResourceErr reports whether err is resource exhaustion (disk full).
// The paper explicitly excludes resource exhaustion from property-based
// testing because there is no tractable correctness oracle for it (§4.4);
// the harness treats such failures as clean no-ops.
func benignResourceErr(err error) bool {
	return errors.Is(err, extent.ErrNoFreeExtent) ||
		errors.Is(err, extent.ErrExtentFull) ||
		errors.Is(err, chunk.ErrChunkTooBig)
}

// opFailure converts an unexpected implementation error into a violation,
// honoring the §4.4 has-failed relaxation and the resource-exhaustion
// exclusion.
func (es *execState) opFailure(what string, err error) error {
	if err == nil {
		return nil
	}
	if benignResourceErr(err) {
		return nil
	}
	if es.ref.HasFailed() {
		return nil // implementation operations may fail after injected faults
	}
	return fmt.Errorf("%s failed with no fault injected: %w", what, err)
}

func (es *execState) apply(op Op) error {
	es.st.Reseed(op.Tag)
	switch op.Kind {
	case OpGet:
		if !es.inService {
			return es.expectOutOfService(func() error { _, err := es.st.Get(op.Key); return err })
		}
		got, err := es.implRead(op.Key)
		if cerr := es.ref.CheckRead(op.Key, got, err); cerr != nil {
			return cerr
		}
		if err == nil && es.ref.HasFailed() {
			es.ref.ResolveMaybe(op.Key, got)
		}
		return nil

	case OpPut:
		if !es.inService {
			return es.expectOutOfService(func() error { _, err := es.st.Put(op.Key, op.Value); return err })
		}
		d, err := es.st.Put(op.Key, op.Value)
		if err != nil {
			if benignResourceErr(err) {
				return nil // disk full: the put did not take effect
			}
			if ferr := es.opFailure("Put", err); ferr != nil {
				return ferr
			}
			es.ref.ApplyPut(op.Key, op.Value, nil, true)
			return nil
		}
		es.ref.ApplyPut(op.Key, op.Value, d, false)
		return nil

	case OpPutDurable:
		if !es.inService {
			return es.expectOutOfService(func() error { _, err := es.st.Put(op.Key, op.Value); return err })
		}
		d, err := es.st.Put(op.Key, op.Value)
		if err != nil {
			if benignResourceErr(err) {
				return nil
			}
			if ferr := es.opFailure("PutDurable", err); ferr != nil {
				return ferr
			}
			es.ref.ApplyPut(op.Key, op.Value, nil, true)
			return nil
		}
		es.ref.ApplyPut(op.Key, op.Value, d, false)
		// The write is in the model; now cross the commit barrier. A failed
		// wait (injected IO fault) leaves the put in-flight, which the model
		// already tolerates via the dependency's persistence state.
		if err := es.st.WaitDurable(d); err != nil {
			return es.opFailure("WaitDurable", err)
		}
		return nil

	case OpDelete:
		if !es.inService {
			return es.expectOutOfService(func() error { _, err := es.st.Delete(op.Key); return err })
		}
		d, err := es.st.Delete(op.Key)
		if err != nil {
			if ferr := es.opFailure("Delete", err); ferr != nil {
				return ferr
			}
			es.ref.ApplyDelete(op.Key, nil, true)
			return nil
		}
		es.ref.ApplyDelete(op.Key, d, false)
		return nil

	case OpList:
		if !es.inService {
			return nil
		}
		ids, err := es.st.List()
		if err != nil {
			return es.opFailure("List", err)
		}
		return es.checkListing(ids)

	case OpFlushIndex:
		if !es.inService {
			return nil
		}
		_, err := es.st.FlushIndex()
		return es.opFailure("FlushIndex", err)

	case OpFlushSuperblock:
		if !es.inService {
			return nil
		}
		_, err := es.st.FlushSuperblock()
		return es.opFailure("FlushSuperblock", err)

	case OpSchedStep:
		es.st.SchedStep()
		return nil

	case OpSchedSync:
		return es.opFailure("SchedSync", es.st.SchedSync())

	case OpPump:
		if !es.inService {
			return nil
		}
		return es.opFailure("Pump", es.st.Pump())

	case OpCompactIndex:
		if !es.inService {
			return nil
		}
		return es.opFailure("CompactIndex", es.st.CompactIndex())

	case OpCompactStep:
		if !es.inService {
			return nil
		}
		// Compaction rewrites representation, never contents: the reference
		// model is unchanged, and the equivalence checks after this op are
		// what verify the rewrite preserved every entry.
		_, err := es.st.CompactStep()
		return es.opFailure("CompactStep", err)

	case OpScan:
		if !es.inService {
			return es.expectOutOfService(func() error {
				_, _, err := es.st.Scan(op.Key, op.Key2, op.Extent)
				return err
			})
		}
		entries, more, err := es.implScan(op.Key, op.Key2, op.Extent)
		if err != nil {
			if es.rangeRotted(op.Key, op.Key2) {
				return nil
			}
			// Like a point read, a persistent scan failure with no rot in
			// range means data is gone or corrupt — never forgiven.
			return fmt.Errorf("Scan of [%q, %q) failed persistently: %w", op.Key, op.Key2, err)
		}
		keys := make([]string, len(entries))
		values := make([][]byte, len(entries))
		for i, e := range entries {
			keys[i] = e.Key
			values[i] = e.Value
		}
		if cerr := es.ref.CheckScan(op.Key, op.Key2, op.Extent, keys, values, more); cerr != nil {
			return cerr
		}
		if es.ref.HasFailed() {
			for i := range keys {
				es.ref.ResolveMaybe(keys[i], values[i])
			}
		}
		return nil

	case OpReclaim:
		if !es.inService {
			return nil
		}
		ext := disk.ExtentID(op.Extent % es.cfg.StoreConfig.Disk.ExtentCount)
		err := es.st.Reclaim(ext)
		es.ref.MarkReclaim()
		if err != nil {
			if errors.Is(err, chunk.ErrBusy) || errors.Is(err, chunk.ErrAborted) {
				return nil // busy extents and fault-aborted reclaims are expected
			}
			// Reclaiming a non-data extent is rejected; that's fine too.
			return nil
		}
		return nil

	case OpDrainCache:
		es.st.DrainCache()
		return nil

	case OpRemoveDisk:
		if !es.inService {
			return nil
		}
		if err := es.opFailure("RemoveFromService", es.st.RemoveFromService()); err != nil {
			return err
		}
		es.inService = false
		return nil

	case OpReturnDisk:
		if es.inService {
			return nil
		}
		ns, err := es.st.ReturnToService()
		if err != nil {
			ns, err = es.reopen()
			if err != nil {
				return es.opFailure("ReturnToService", err)
			}
		}
		es.st = ns
		es.inService = true
		return nil

	case OpFailDiskOnce:
		ext := disk.ExtentID(op.Extent % es.cfg.StoreConfig.Disk.ExtentCount)
		es.d.InjectFailOnce(ext)
		es.injected++
		es.ref.MarkFailed()
		return nil

	case OpCleanReboot:
		if !es.inService {
			return nil
		}
		es.crashes += 0
		if err := es.st.CleanShutdown(); err != nil {
			if benignResourceErr(err) {
				// Shutdown could not flush for lack of space, so buffered
				// mutations may be lost across the reopen: model it exactly
				// like a dirty transition (persistent data must survive,
				// in-flight data may not).
				ns, rerr := es.reopen()
				if rerr != nil {
					return fmt.Errorf("recovery after failed shutdown: %w", rerr)
				}
				es.st = ns
				return es.ref.AdoptDirtyReboot(es.implRead)
			}
			return es.opFailure("CleanShutdown", err)
		}
		// Forward progress (§5): after a clean shutdown every dependency
		// must report persistent.
		if !es.ref.HasFailed() {
			if err := es.ref.CheckCleanShutdown(); err != nil {
				return err
			}
		}
		ns, err := es.reopen()
		if err != nil {
			return fmt.Errorf("recovery after clean reboot: %w", err)
		}
		es.st = ns
		return nil

	case OpDirtyReboot:
		return es.dirtyReboot(op)

	case OpScrub:
		if !es.inService {
			return nil
		}
		_, err := es.st.ScrubRound()
		if ferr := es.opFailure("Scrub", err); ferr != nil {
			return ferr
		}
		// The loss verdict must be honest: a shard the scrubber reports
		// irreparable must actually have had every replica of a piece
		// corrupted (k = R). Anything else is a scrubber defect — it either
		// failed to use a surviving replica or repaired from an unverified
		// source and then lost the survivors.
		for _, k := range es.st.Scrubber().LostKeys() {
			if !es.ref.Rotted(k) {
				return fmt.Errorf("scrub reported shard %q irreparable, but fewer than all replicas were corrupted", k)
			}
		}
		return nil

	case OpRotReplica, OpRotAll:
		if !es.inService {
			return nil
		}
		return es.applyRot(op)

	default:
		return fmt.Errorf("harness: unknown op kind %v", op.Kind)
	}
}

// expectOutOfService asserts that an op on an out-of-service disk fails with
// exactly ErrOutOfService.
func (es *execState) expectOutOfService(call func() error) error {
	err := call()
	if !errors.Is(err, store.ErrOutOfService) {
		return fmt.Errorf("op on out-of-service disk returned %v, want ErrOutOfService", err)
	}
	return nil
}

// checkListing validates a control-plane listing against the model: every
// definitely-present shard must be listed, and nothing definitely-absent may
// be listed.
func (es *execState) checkListing(ids []string) error {
	listed := make(map[string]bool, len(ids))
	for _, id := range ids {
		listed[id] = true
	}
	for _, key := range es.ref.Keys() {
		v, present := es.ref.MustBePresent(key)
		_ = v
		if present && !listed[key] {
			return fmt.Errorf("List omitted shard %q that must be present", key)
		}
		if !present {
			if allowed := es.ref.Expected(key); len(allowed) == 1 && allowed[0] == nil && listed[key] {
				return fmt.Errorf("List returned shard %q that must be absent", key)
			}
		}
	}
	return nil
}

// checkInvariants is the Fig 3 check_invariants: the implementation and the
// reference model must agree on the key-value mapping (modulo the §4.4
// relaxation and crash ambiguity).
func (es *execState) checkInvariants() error {
	if !es.inService {
		return nil
	}
	for _, key := range es.ref.Keys() {
		got, err := es.implRead(key)
		if cerr := es.ref.CheckRead(key, got, err); cerr != nil {
			return fmt.Errorf("invariant: %w", cerr)
		}
	}
	// No phantom keys: everything the implementation lists must be at least
	// possibly present in the model.
	var implKeys []string
	var err error
	for attempt := 0; attempt < 4; attempt++ {
		pending := es.outstanding() > 0
		implKeys, err = es.st.Keys()
		if err == nil {
			break
		}
		if !pending {
			return fmt.Errorf("invariant: Keys failed: %w", err)
		}
	}
	if err != nil {
		return fmt.Errorf("invariant: Keys failed repeatedly: %w", err)
	}
	for _, k := range implKeys {
		allowed := es.ref.Expected(k)
		if len(allowed) == 1 && allowed[0] == nil {
			return fmt.Errorf("invariant: implementation has phantom shard %q", k)
		}
	}
	return nil
}

// dirtyReboot implements the DirtyReboot(RebootType) op of §5: optional
// component flushes, a crash that tears the disk cache, recovery, and the
// persistence check through the model's crash extension.
func (es *execState) dirtyReboot(op Op) error {
	if es.inService {
		if op.Flags&RebootFlushIndex != 0 {
			if _, err := es.st.FlushIndex(); err != nil && !es.ref.HasFailed() && !benignResourceErr(err) {
				return fmt.Errorf("reboot index flush: %w", err)
			}
		}
		if op.Flags&RebootFlushSuperblock != 0 {
			if _, err := es.st.FlushSuperblock(); err != nil && !es.ref.HasFailed() {
				return fmt.Errorf("reboot superblock flush: %w", err)
			}
		}
		if op.Flags&RebootSchedStep != 0 {
			es.st.SchedStep()
		}
		if op.Flags&RebootSchedSync != 0 {
			if err := es.st.SchedSync(); err != nil && !es.ref.HasFailed() {
				return fmt.Errorf("reboot sched sync: %w", err)
			}
		}
	}
	es.crashes++
	if es.cfg.ExhaustiveCrash {
		return es.exhaustiveCrash(op)
	}
	es.st.Crash(es.crashRand(op.CrashSeed))
	ns, err := es.reopen()
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	es.st = ns
	es.inService = true
	if err := es.ref.AdoptDirtyReboot(es.implRead); err != nil {
		return err
	}
	return nil
}

// exhaustiveCrash enumerates block-level crash states (§5): every subset of
// the dirty pages (up to exhaustiveCap), checking recovery + the persistence
// property in each, then continues execution from the last state.
func (es *execState) exhaustiveCrash(op Op) error {
	dirty := es.d.DirtyPages()
	n := len(dirty)
	subsets := 1 << uint(minInt(n, 20))
	if subsets > exhaustiveCap {
		subsets = exhaustiveCap
	}
	snap := es.d.Snapshot()
	for mask := 0; mask < subsets; mask++ {
		es.d.Restore(snap)
		m := mask
		es.st.CrashKeep(func(a disk.PageAddr) bool {
			for i, da := range dirty {
				if da == a {
					return m&(1<<uint(i)) != 0
				}
			}
			return false
		})
		ns, err := store.Open(es.d, es.cfg.StoreConfig)
		if err != nil {
			return fmt.Errorf("exhaustive recovery (mask %x): %w", mask, err)
		}
		refClone := es.ref.Clone()
		readClone := func(key string) ([]byte, error) {
			v, err := ns.Get(key)
			if errors.Is(err, store.ErrNotFound) {
				return nil, nil
			}
			if err != nil {
				return nil, err
			}
			return v, nil
		}
		if err := refClone.AdoptDirtyReboot(readClone); err != nil {
			return fmt.Errorf("crash state %x of %x: %w", mask, subsets, err)
		}
		if mask == subsets-1 {
			// Continue the sequence from the final enumerated state.
			es.st = ns
			es.inService = true
			if err := es.ref.AdoptDirtyReboot(readClone); err != nil {
				return err
			}
		}
	}
	return nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
