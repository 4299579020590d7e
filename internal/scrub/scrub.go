// Package scrub implements the background integrity subsystem: a rate-limited
// scrubber that walks the live shards of one storage node, re-verifies every
// replica's chunk frame (magic, trailing UUID, CRC, owning key), quarantines
// rotted locators, and repairs each bad replica by re-writing the payload
// from a surviving verified copy. When every replica of a piece is rotted the
// scrubber records an irreparable-loss verdict — the shard is reported lost,
// never silently served.
//
// The paper's frames carry CRCs precisely so that "torn or rotted payloads"
// are detectable (§2); production S3 runs continuous scrubbing against
// exactly this failure. The scrubber is validated the same way the paper
// validates ShardStore itself: the conformance harness injects silent
// corruption (disk.CorruptPage) and checks, in lockstep with the reference
// model, that k < R rotted copies leave every shard readable after a scrub
// round and that k = R surfaces as a reported loss.
//
// Repair follows the same GC discipline as reclamation's evacuation: the
// healed copy is written with the extent pinned (the release closure), the
// index entry is swapped by compare-and-swap under the store lock, and the
// entry update carries a dependency on the repair write — so a crash between
// the two leaves the old (still-referenced) state, and a reclamation racing
// with repair simply wins the CAS, turning the healed copy into garbage
// instead of resurrecting a reclaimed chunk.
package scrub

import (
	"sort"

	"shardstore/internal/chunk"
	"shardstore/internal/dep"
	"shardstore/internal/disk"
	"shardstore/internal/faults"
	"shardstore/internal/obs"
	"shardstore/internal/vsync"
)

// Host is the storage-node surface the scrubber works against. It is
// implemented by the store layer; the indirection keeps the package free of
// an import cycle (store imports scrub for its lifecycle).
type Host interface {
	// LiveKeys lists the shard ids currently in the index.
	LiveKeys() ([]string, error)
	// ReadEntry returns the per-piece replica locator groups for key, or an
	// error if the key is gone (deleted concurrently with the scan).
	ReadEntry(key string) ([][]chunk.Locator, error)
	// ReadFrame reads the raw frame bytes at loc from the disk (bypassing
	// the chunk buffer cache — the scrubber verifies media, not cache).
	ReadFrame(loc chunk.Locator) ([]byte, error)
	// WriteRepair appends a fresh chunk for key avoiding the given extents,
	// returning the locator, the write's dependency, and a release closure
	// that unpins the extent (hold it until the reference is swapped in).
	WriteRepair(key string, payload []byte, avoid []disk.ExtentID) (chunk.Locator, *dep.Dependency, func(), error)
	// SwapReplica compare-and-swaps old for newLoc in key's index entry,
	// ordering the entry update after d. It reports false if the entry no
	// longer references old (a concurrent put, delete, or reclamation won).
	SwapReplica(key string, old, newLoc chunk.Locator, d *dep.Dependency) (bool, error)
	// Quarantine marks loc as failed-verification so reads refuse it.
	Quarantine(loc chunk.Locator)
}

// Config tunes a scrubber.
type Config struct {
	// KeysPerStep rate-limits Step: at most this many shards are verified
	// per call, resuming from a cursor. Zero selects 8.
	KeysPerStep int
	// Obs is the observability registry for metrics and tracing. Nil gives
	// the scrubber a private registry.
	Obs *obs.Obs
}

// Stats counts scrubber activity (cumulative since creation). It is a thin
// snapshot of the scrubber's obs registry counters.
type Stats struct {
	Rounds         uint64 // completed full passes
	KeysScanned    uint64
	FramesVerified uint64
	BytesVerified  uint64
	BadReplicas    uint64 // replicas that failed frame verification
	Repaired       uint64 // bad replicas healed from a surviving copy
	RepairFailed   uint64 // repair write or swap errors (will be retried)
	SwapLost       uint64 // repairs beaten by a concurrent entry update
	Irreparable    uint64 // pieces with every replica rotted
}

// Result summarizes one Step or Round.
type Result struct {
	KeysScanned    int
	FramesVerified int
	BytesVerified  int
	BadReplicas    int
	Repaired       int
	Irreparable    int
}

func (r *Result) add(o Result) {
	r.KeysScanned += o.KeysScanned
	r.FramesVerified += o.FramesVerified
	r.BytesVerified += o.BytesVerified
	r.BadReplicas += o.BadReplicas
	r.Repaired += o.Repaired
	r.Irreparable += o.Irreparable
}

// scrubMetrics holds the obs handles, resolved once at construction.
type scrubMetrics struct {
	rounds         *obs.Counter
	keysScanned    *obs.Counter
	framesVerified *obs.Counter
	bytesVerified  *obs.Counter
	badReplicas    *obs.Counter
	repaired       *obs.Counter
	repairFailed   *obs.Counter
	swapLost       *obs.Counter
	irreparable    *obs.Counter
	lostShards     *obs.Gauge
	roundDur       *obs.Histogram
	repairDur      *obs.Histogram
}

func newScrubMetrics(o *obs.Obs) scrubMetrics {
	return scrubMetrics{
		rounds:         o.Counter("scrub.rounds"),
		keysScanned:    o.Counter("scrub.keys_scanned"),
		framesVerified: o.Counter("scrub.frames_verified"),
		bytesVerified:  o.Counter("scrub.bytes_verified"),
		badReplicas:    o.Counter("scrub.bad_replicas"),
		repaired:       o.Counter("scrub.repaired"),
		repairFailed:   o.Counter("scrub.repair_failed"),
		swapLost:       o.Counter("scrub.swap_lost"),
		irreparable:    o.Counter("scrub.irreparable"),
		lostShards:     o.Gauge("scrub.lost_shards"),
		roundDur:       o.Histogram("scrub.round_dur"),
		repairDur:      o.Histogram("scrub.repair_dur"),
	}
}

// Scrubber walks one node's live shards verifying and repairing replicas.
// Methods are safe for concurrent use; a single pass runs at a time.
type Scrubber struct {
	mu   vsync.Mutex
	host Host
	cfg  Config
	bugs *faults.Set
	obs  *obs.Obs
	met  scrubMetrics

	cursor string // next key for Step's resumable partial pass
	// lost records shards with at least one irreparable piece, cleared when
	// a later pass finds the shard healthy again (it was rewritten) or gone.
	lost map[string]bool
}

// New creates a scrubber over host. bugs selects seeded scrubber defects
// (FaultScrubRepairUnverified); nil means the fixed code paths.
func New(host Host, cfg Config, bugs *faults.Set) *Scrubber {
	if cfg.KeysPerStep <= 0 {
		cfg.KeysPerStep = 8
	}
	o := cfg.Obs
	if o == nil {
		o = obs.New(nil)
	}
	return &Scrubber{host: host, cfg: cfg, bugs: bugs, obs: o, met: newScrubMetrics(o), lost: make(map[string]bool)}
}

// Stats returns a snapshot of the cumulative counters (reading the obs
// registry).
func (s *Scrubber) Stats() Stats {
	return Stats{
		Rounds:         s.met.rounds.Value(),
		KeysScanned:    s.met.keysScanned.Value(),
		FramesVerified: s.met.framesVerified.Value(),
		BytesVerified:  s.met.bytesVerified.Value(),
		BadReplicas:    s.met.badReplicas.Value(),
		Repaired:       s.met.repaired.Value(),
		RepairFailed:   s.met.repairFailed.Value(),
		SwapLost:       s.met.swapLost.Value(),
		Irreparable:    s.met.irreparable.Value(),
	}
}

// LostKeys returns the shards currently recorded as having irreparable
// pieces, sorted. A shard leaves the list when a later pass finds it healthy
// (it was overwritten) or deleted.
func (s *Scrubber) LostKeys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.lost))
	for k := range s.lost {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Round runs one full verification pass over every live shard.
func (s *Scrubber) Round() (Result, error) {
	bg := s.obs.Tracer().Background("scrub", "round")
	defer bg.End()
	start := s.obs.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	keys, err := s.host.LiveKeys()
	if err != nil {
		return Result{}, err
	}
	s.pruneLostLocked(keys)
	var res Result
	for _, key := range keys {
		res.add(s.scrubKeyLocked(key))
	}
	s.met.rounds.Inc()
	s.met.roundDur.Observe(s.obs.Now() - start)
	s.obs.Hit("scrub.round")
	return res, nil
}

// Step runs a rate-limited partial pass: at most cfg.KeysPerStep shards,
// resuming from where the previous Step stopped. wrapped reports that the
// pass completed the key space (counting as a finished round).
func (s *Scrubber) Step() (res Result, wrapped bool, err error) {
	bg := s.obs.Tracer().Background("scrub", "step")
	defer bg.End()
	s.mu.Lock()
	defer s.mu.Unlock()
	keys, err := s.host.LiveKeys()
	if err != nil {
		return Result{}, false, err
	}
	s.pruneLostLocked(keys)
	if len(keys) == 0 {
		s.cursor = ""
		s.met.rounds.Inc()
		return Result{}, true, nil
	}
	sort.Strings(keys)
	start := sort.SearchStrings(keys, s.cursor)
	if start == len(keys) {
		start = 0
	}
	n := s.cfg.KeysPerStep
	if n > len(keys) {
		n = len(keys)
	}
	for i := 0; i < n; i++ {
		res.add(s.scrubKeyLocked(keys[(start+i)%len(keys)]))
	}
	next := start + n
	if next >= len(keys) {
		wrapped = true
		s.met.rounds.Inc()
		s.cursor = ""
	} else {
		s.cursor = keys[next]
	}
	s.obs.Hit("scrub.step")
	return res, wrapped, nil
}

// pruneLostLocked drops irreparable-loss verdicts for shards that are no
// longer live: a deleted shard never lists again, so without pruning its
// verdict would outlive the data loss it reported. Caller holds s.mu.
func (s *Scrubber) pruneLostLocked(live []string) {
	if len(s.lost) == 0 {
		return
	}
	set := make(map[string]bool, len(live))
	for _, k := range live {
		set[k] = true
	}
	for k := range s.lost {
		if !set[k] {
			delete(s.lost, k)
		}
	}
}

// replica is one copy's verification state within a group.
type replica struct {
	loc     chunk.Locator
	payload []byte // verified payload when good
	raw     []byte // raw frame bytes (whatever was read)
	good    bool
	bad     bool // definitively rotted (read succeeded, verification failed)
}

// scrubKeyLocked verifies and repairs one shard. Caller holds s.mu.
func (s *Scrubber) scrubKeyLocked(key string) Result {
	var res Result
	groups, err := s.host.ReadEntry(key)
	if err != nil {
		// Deleted concurrently, or the entry itself is unreadable; either
		// way there is nothing replica-level to verify here.
		delete(s.lost, key)
		return res
	}
	res.KeysScanned = 1
	s.met.keysScanned.Inc()
	anyIrreparable := false
	sawUnknown := false
	for _, group := range groups {
		reps := make([]replica, len(group))
		allBad := len(group) > 0
		for i, loc := range group {
			reps[i] = s.verifyReplica(key, loc)
			if reps[i].raw == nil {
				sawUnknown = true
			}
			if reps[i].raw != nil {
				res.FramesVerified++
				res.BytesVerified += len(reps[i].raw)
				s.met.framesVerified.Inc()
				s.met.bytesVerified.Add(uint64(len(reps[i].raw)))
			}
			if reps[i].bad {
				res.BadReplicas++
				s.met.badReplicas.Inc()
				s.obs.Hit("scrub.bad_replica")
				if tr := s.obs.Tracer(); tr != nil {
					tr.Background("scrub", "bad_replica "+reps[i].loc.String()).End()
				}
			} else {
				allBad = false
			}
		}
		source := s.pickSource(reps)
		for i := range reps {
			if !reps[i].bad {
				continue
			}
			if source != nil {
				if s.repairLocked(key, reps, i, source) {
					res.Repaired++
				}
			} else {
				// No usable source this pass. The replica is definitively
				// rotted either way, so its bytes must never be served again.
				s.host.Quarantine(reps[i].loc)
			}
		}
		// "Irreparable" is a definitive verdict: it requires every replica to
		// have been read successfully and failed verification. A replica whose
		// read errored is unknown — its media bytes may be fine behind a
		// transient disk fault (§4.4) — so the verdict waits for a pass that
		// can actually see it.
		if allBad {
			anyIrreparable = true
			res.Irreparable++
			s.met.irreparable.Inc()
			s.obs.Hit("scrub.irreparable")
		}
	}
	if anyIrreparable {
		if !s.lost[key] {
			s.lost[key] = true
			s.obs.Hit("scrub.lost_shard")
			if tr := s.obs.Tracer(); tr != nil {
				tr.Background("scrub", "lost_shard "+key).End()
			}
		}
	} else if !sawUnknown {
		// Only a fully determinate pass (every replica actually read) may
		// clear a standing loss verdict.
		delete(s.lost, key)
	}
	s.met.lostShards.Set(int64(len(s.lost)))
	return res
}

// verifyReplica reads and fully validates one replica's frame.
func (s *Scrubber) verifyReplica(key string, loc chunk.Locator) replica {
	r := replica{loc: loc}
	buf, err := s.host.ReadFrame(loc)
	if err != nil {
		// An IO error is the §4.4 environmental-failure domain, not rot: the
		// bytes may be fine. Leave the replica unknown (neither a repair
		// source nor a repair target); the next pass retries it.
		return r
	}
	r.raw = buf
	_, owner, payload, err := chunk.DecodeFrame(buf)
	if err != nil || owner != key {
		r.bad = true
		return r
	}
	r.good = true
	r.payload = append([]byte(nil), payload...)
	return r
}

// pickSource selects the replica to repair from, or nil when none qualifies.
// The fixed scrubber only ever copies from a fully verified replica. Seeded
// fault: FaultScrubRepairUnverified takes the first replica's payload
// *without* re-verifying the frame — sourced from a rotted copy whose header
// survived, the repair writes a fresh, valid-CRC frame around rotted payload
// bytes, laundering the corruption instead of healing it.
func (s *Scrubber) pickSource(reps []replica) *replica {
	if s.bugs.Enabled(faults.FaultScrubRepairUnverified) && len(reps) > 0 && reps[0].raw != nil {
		r := &reps[0]
		if h, err := chunk.ParseHeader(r.raw); err == nil && h.FrameLen() <= len(r.raw) {
			start := headerFixedPrefix + h.KeyLen
			if start+h.PayloadLen <= len(r.raw) {
				s.obs.Hit("scrub.bug.unverified_source")
				cp := *r
				cp.payload = append([]byte(nil), r.raw[start:start+h.PayloadLen]...)
				return &cp
			}
		}
		return nil
	}
	for i := range reps {
		if reps[i].good {
			return &reps[i]
		}
	}
	return nil
}

// headerFixedPrefix mirrors the chunk frame's fixed header length
// (magic + uuid + tag + keyLen + payloadLen) for the seeded unverified-read
// defect, which slices payload bytes straight out of the raw frame.
const headerFixedPrefix = 1 + 16 + 1 + 2 + 4

// repairLocked heals reps[i] from source: write a fresh copy on an extent
// holding none of the group's other replicas, CAS it into the index entry,
// and quarantine the rotted locator. Caller holds s.mu.
func (s *Scrubber) repairLocked(key string, reps []replica, i int, source *replica) bool {
	start := s.obs.Now()
	var avoid []disk.ExtentID
	for j := range reps {
		if j != i {
			avoid = append(avoid, reps[j].loc.Extent)
		}
	}
	newLoc, d, release, err := s.host.WriteRepair(key, source.payload, avoid)
	if err != nil {
		s.met.repairFailed.Inc()
		s.obs.Hit("scrub.repair_failed")
		return false
	}
	// Hold the pin across the swap so reclamation cannot evacuate the healed
	// copy before its reference exists (the bug #14 discipline).
	swapped, err := s.host.SwapReplica(key, reps[i].loc, newLoc, d)
	release()
	if err != nil {
		s.met.repairFailed.Inc()
		s.obs.Hit("scrub.repair_failed")
		return false
	}
	if !swapped {
		// A concurrent put, delete, or reclamation changed the entry; the
		// healed copy becomes garbage for a future reclamation.
		s.met.swapLost.Inc()
		s.obs.Hit("scrub.swap_lost")
		return false
	}
	s.host.Quarantine(reps[i].loc)
	s.met.repaired.Inc()
	s.met.repairDur.Observe(s.obs.Now() - start)
	s.obs.Hit("scrub.repaired")
	if tr := s.obs.Tracer(); tr != nil {
		tr.Background("scrub", "repair "+key).End()
	}
	return true
}
