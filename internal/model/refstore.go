package model

import (
	"bytes"
	"fmt"
	"sort"

	"shardstore/internal/dep"
	"shardstore/internal/faults"
)

// RefStore is the crash-extended reference model for the whole key-value
// store (§3.1/§5). In crash-free operation it is simply a map and the
// durability property is exact equivalence of the key-value mapping. To
// reason about crashes the model additionally records, per mutation, the
// Dependency the implementation returned; at a dirty reboot it derives the
// set of values soft updates allows each key to hold:
//
//   - the value of the latest mutation whose dependency reports persistent
//     (or the pre-crash durable base if none does) — this one is mandatory
//     in the sense that the implementation may not lose it;
//   - any later, not-yet-persistent mutation — unacknowledged writes may
//     legitimately survive a crash;
//   - and nothing else: a value that was never written for the key (or a
//     resurrected value from before the last persistent mutation) is a
//     consistency violation.
//
// Environmental failure injection (§4.4) weakens this with a per-mutation
// "maybe" marker: when the implementation reported an error for a mutation
// after a fault was injected, both the before and after states are allowed
// ("allowed to fail by returning no data, but never allowed to return the
// wrong data").
type RefStore struct {
	bugs *faults.Set

	// base holds values considered durable as of the last reboot (or since
	// the store was created). A nil slice never occurs; absence is absence.
	base map[string][]byte

	// log holds the mutations applied since the last reboot, in order.
	log []Mutation

	// hasFailed relaxes comparisons after an environmental fault (§4.4).
	hasFailed bool

	// rotted maps keys whose every replica has been silently corrupted
	// (k = R) to the mutation seq at injection time. The marker means "a read
	// error is additionally allowed" — never that one is required: caches and
	// pending writebacks may still legitimately serve (or re-persist) the
	// clean bytes. Wrong values stay forbidden; CRC verification must turn
	// rot into an error, never into different data. A later successful
	// mutation supersedes the rot for the current view (Rotted), but only a
	// *persistent* later mutation makes it unreachable by a crash — a torn
	// reboot can revert the key to its rotted-era entry.
	rotted map[string]uint64

	// reclaimSinceReboot is the seeded bug #9 trigger: the buggy adoption
	// path mishandles crash states that follow a reclamation.
	reclaimSinceReboot bool

	// seq numbers mutations within this model instance.
	seq uint64
}

// Mutation is one logged state change.
type Mutation struct {
	Seq    uint64
	Key    string
	Value  []byte // nil = deletion
	Dep    *dep.Dependency
	Maybe  bool // the implementation errored; effect may or may not apply
	Seen   bool // set once adopted into base
	OpName string
}

// NewRefStore returns an empty model.
func NewRefStore(bugs *faults.Set) *RefStore {
	return &RefStore{bugs: bugs, base: make(map[string][]byte), rotted: make(map[string]uint64)}
}

// seq numbers are per-model.

// ApplyPut records a put of key=value whose implementation dependency is d.
// maybe marks mutations whose implementation call failed under injected
// faults.
func (r *RefStore) ApplyPut(key string, value []byte, d *dep.Dependency, maybe bool) {
	r.seq++
	// A put's value is always non-nil, even when empty: nil is the deletion
	// marker in the log.
	v := make([]byte, len(value))
	copy(v, value)
	r.log = append(r.log, Mutation{Seq: r.seq, Key: key, Value: v, Dep: d, Maybe: maybe, OpName: "put"})
}

// ApplyDelete records a deletion of key.
func (r *RefStore) ApplyDelete(key string, d *dep.Dependency, maybe bool) {
	r.seq++
	r.log = append(r.log, Mutation{Seq: r.seq, Key: key, Value: nil, Dep: d, Maybe: maybe, OpName: "delete"})
}

// MarkRotted records that every replica of key's data has been silently
// corrupted (k = R): reads of key are now allowed — not required — to fail.
func (r *RefStore) MarkRotted(key string) { r.rotted[key] = r.seq }

// Rotted reports whether the current view of key may still be its rotted-era
// entry: rot was injected and no definite (non-maybe) mutation has superseded
// it since. A maybe-mutation does not clear it — its effect may never have
// applied.
func (r *RefStore) Rotted(key string) bool {
	rotSeq, ok := r.rotted[key]
	if !ok {
		return false
	}
	for i := len(r.log) - 1; i >= 0; i-- {
		m := r.log[i]
		if m.Key == key && m.Seq > rotSeq && !m.Maybe {
			return false
		}
	}
	return true
}

// rotReachableAfterCrash reports whether a crash may surface key's rotted-era
// entry: rot was injected and no definite mutation issued after it has a
// persistent dependency. (A later non-persistent Put can be torn away by the
// crash, reverting the key to its rotted copies.)
func (r *RefStore) rotReachableAfterCrash(key string) bool {
	rotSeq, ok := r.rotted[key]
	if !ok {
		return false
	}
	for i := len(r.log) - 1; i >= 0; i-- {
		m := r.log[i]
		if m.Key == key && m.Seq > rotSeq && !m.Maybe && m.Dep.IsPersistent() {
			return false
		}
	}
	return true
}

// MarkFailed records that an environmental fault was injected; subsequent
// checks use the relaxed comparison.
func (r *RefStore) MarkFailed() { r.hasFailed = true }

// HasFailed reports whether the relaxed comparison is in effect.
func (r *RefStore) HasFailed() bool { return r.hasFailed }

// MarkReclaim records that a reclamation ran (bug #9 trigger state).
func (r *RefStore) MarkReclaim() { r.reclaimSinceReboot = true }

// Expected returns the allowed values for key in crash-free operation:
// normally a single value (or absence), plus alternates for "maybe"
// mutations. Values are returned newest-allowed-first; a nil entry means
// "absent is allowed".
func (r *RefStore) Expected(key string) [][]byte {
	// Walk the log newest-first; the newest non-maybe mutation pins the
	// value, with every newer maybe mutation contributing an alternate.
	var allowed [][]byte
	for i := len(r.log) - 1; i >= 0; i-- {
		m := r.log[i]
		if m.Key != key {
			continue
		}
		allowed = append(allowed, cloneOrNil(m.Value))
		if !m.Maybe {
			return dedupValues(allowed)
		}
	}
	if v, ok := r.base[key]; ok {
		allowed = append(allowed, cloneOrNil(v))
	} else {
		allowed = append(allowed, nil)
	}
	return dedupValues(allowed)
}

// Keys returns every key that may be present (base plus logged puts).
func (r *RefStore) Keys() []string {
	set := make(map[string]bool)
	for k := range r.base {
		set[k] = true
	}
	for _, m := range r.log {
		set[m.Key] = true
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// MustBePresent reports whether key must currently resolve to exactly one
// value (no maybes in play).
func (r *RefStore) MustBePresent(key string) ([]byte, bool) {
	allowed := r.Expected(key)
	if len(allowed) != 1 {
		return nil, false
	}
	return allowed[0], allowed[0] != nil
}

// CheckRead validates an implementation read result against the model.
// got == nil with a nil err means the implementation reported not-found; a
// non-nil err means the read failed outright, and a violation wraps it so
// the report keeps the store's own account of the failure.
func (r *RefStore) CheckRead(key string, got []byte, err error) error {
	allowed := r.Expected(key)
	if err != nil {
		if r.Rotted(key) {
			// Every replica was silently corrupted; CRC verification turning
			// that into a read error is exactly the required behaviour
			// ("allowed to fail by returning no data, but never ... the
			// wrong data").
			return nil
		}
		// The harness retries reads past transient injected faults, so an
		// error that reaches the model is conclusive: the data is gone or
		// corrupt, which the relaxation of §4.4 never allows ("allowed to
		// fail by returning no data, but never ... the wrong data" — and a
		// persistent failure with no outstanding fault is not "during an IO
		// error").
		return fmt.Errorf("model: read of %q failed persistently: data lost or corrupt: %w", key, err)
	}
	for _, v := range allowed {
		if v == nil && got == nil {
			return nil
		}
		if v != nil && got != nil && bytes.Equal(v, got) {
			return nil
		}
	}
	return fmt.Errorf("model: read of %q returned %s, allowed %s", key, fmtVal(got), fmtVals(allowed))
}

// CheckScan validates one ordered-scan page against the model. keys/values
// are the page the implementation returned for Scan(start, end, limit); more
// is its continuation flag. The page must be strictly ascending, confined to
// [start, end), within limit, and per-key consistent: every observed value
// must be an allowed value for its key (phantoms — keys the model says must
// be absent — fail here too), and every key the model says must be present
// in the range must appear. When more is true the page is an honest prefix:
// completeness is only required up to the last returned key.
func (r *RefStore) CheckScan(start, end string, limit int, keys []string, values [][]byte, more bool) error {
	if len(keys) != len(values) {
		return fmt.Errorf("model: scan returned %d keys but %d values", len(keys), len(values))
	}
	if limit > 0 && len(keys) > limit {
		return fmt.Errorf("model: scan returned %d entries, limit %d", len(keys), limit)
	}
	if more && (limit <= 0 || len(keys) != limit) {
		return fmt.Errorf("model: scan reported more with %d entries under limit %d", len(keys), limit)
	}
	for i, k := range keys {
		if i > 0 && keys[i-1] >= k {
			return fmt.Errorf("model: scan keys out of order: %q then %q", keys[i-1], k)
		}
		if k < start || (end != "" && k >= end) {
			return fmt.Errorf("model: scan key %q outside range [%q, %q)", k, start, end)
		}
		allowed := r.Expected(k)
		match := false
		for _, v := range allowed {
			if v != nil && bytes.Equal(v, values[i]) {
				match = true
				break
			}
		}
		if !match {
			return fmt.Errorf("model: scan of [%q, %q) returned %q=%s, allowed %s",
				start, end, k, fmtVal(values[i]), fmtVals(allowed))
		}
	}
	// Completeness: every mandatory in-range key must appear. A truncated
	// page (more) only vouches for the prefix up to its last key.
	horizon := end
	if more {
		horizon = keys[len(keys)-1] + "\x00"
	}
	got := make(map[string]bool, len(keys))
	for _, k := range keys {
		got[k] = true
	}
	for _, k := range r.Keys() {
		if k < start || (horizon != "" && k >= horizon) {
			continue
		}
		if _, present := r.MustBePresent(k); present && !got[k] {
			return fmt.Errorf("model: scan of [%q, %q) missing mandatory key %q", start, end, k)
		}
	}
	return nil
}

// AdoptDirtyReboot reconciles the model with the implementation after a
// crash + recovery (§5's persistence check). read is the implementation's
// post-recovery read for a key (nil = absent, err for IO failure). It
// returns an error describing the first consistency violation found.
func (r *RefStore) AdoptDirtyReboot(read func(key string) ([]byte, error)) error {
	keys := r.Keys()
	bug9 := r.bugs.Enabled(faults.Bug9RefModelCrashReclaim) && r.reclaimSinceReboot
	newBase := make(map[string][]byte, len(r.base))
	for _, key := range keys {
		allowed := r.allowedAfterCrash(key, bug9)
		got, err := read(key)
		if err != nil {
			if r.rotReachableAfterCrash(key) {
				// Rot persists on the durable image across reboots; the
				// recovered store failing this read is allowed. An absent key
				// reads as not-found, not as an error, so the key is present
				// but unreadable: keep the marker and adopt an allowed value
				// so presence checks (listings, phantom detection) still see
				// it. The value bytes are never observable while the rot
				// stands — a fresh Put both clears the marker and supersedes
				// the adopted value.
				adopted := false
				for _, v := range allowed {
					if v != nil {
						newBase[key] = cloneOrNil(v)
						adopted = true
						break
					}
				}
				if adopted {
					continue
				}
				// No allowed value is non-nil: the model says the key must be
				// gone, yet the implementation holds an unreadable entry for
				// it. That is a genuine violation, not rot tolerance.
			}
			return fmt.Errorf("model: post-crash read of %q failed: %v", key, err)
		}
		match := false
		for _, v := range allowed {
			if v == nil && got == nil {
				match = true
				break
			}
			if v != nil && got != nil && bytes.Equal(v, got) {
				match = true
				break
			}
		}
		if !match {
			return fmt.Errorf("model: crash consistency violation on %q: implementation has %s, allowed %s",
				key, fmtVal(got), fmtVals(allowed))
		}
		if got != nil {
			newBase[key] = cloneOrNil(got)
		}
		// A successful post-crash read reflects the durable image directly (no
		// volatile state survives a crash), and durable state never regresses:
		// whatever rot the key carried is permanently superseded or gone.
		delete(r.rotted, key)
	}
	r.base = newBase
	r.log = nil
	r.hasFailed = false
	r.reclaimSinceReboot = false
	return nil
}

// allowedAfterCrash computes the §5 allowed-value set for key.
func (r *RefStore) allowedAfterCrash(key string, bug9 bool) [][]byte {
	var muts []Mutation
	for _, m := range r.log {
		if m.Key == key {
			muts = append(muts, m)
		}
	}
	if bug9 {
		// Seeded bug #9: after a crash that followed a reclamation, the
		// model ignored dependency persistence and insisted on the latest
		// acknowledged value — a model bug producing spurious failures,
		// which is how the real issue surfaced.
		if len(muts) > 0 {
			return [][]byte{cloneOrNil(muts[len(muts)-1].Value)}
		}
		if v, ok := r.base[key]; ok {
			return [][]byte{append([]byte(nil), v...)}
		}
		return [][]byte{nil}
	}
	lastPersistent := -1
	for i := len(muts) - 1; i >= 0; i-- {
		if muts[i].Dep.IsPersistent() && !muts[i].Maybe {
			lastPersistent = i
			break
		}
	}
	var allowed [][]byte
	if lastPersistent >= 0 {
		allowed = append(allowed, cloneOrNil(muts[lastPersistent].Value))
	} else {
		if v, ok := r.base[key]; ok {
			allowed = append(allowed, cloneOrNil(v))
		} else {
			allowed = append(allowed, nil)
		}
		// With no persistent mutation, any earlier in-flight value may also
		// have survived partially ordered writes.
		for i := 0; i < len(muts) && i < lastPersistent+1; i++ {
			allowed = append(allowed, cloneOrNil(muts[i].Value))
		}
	}
	for i := lastPersistent + 1; i < len(muts); i++ {
		allowed = append(allowed, cloneOrNil(muts[i].Value))
	}
	return dedupValues(allowed)
}

// CheckCleanShutdown enforces the forward-progress property (§5): after a
// non-crashing shutdown every mutation's dependency must report persistent.
// It then promotes the final state into the durable base.
func (r *RefStore) CheckCleanShutdown() error {
	for _, m := range r.log {
		if m.Maybe {
			continue
		}
		if !m.Dep.IsPersistent() {
			return fmt.Errorf("model: forward progress violation: %s of %q (seq %d) still not persistent after clean shutdown",
				m.OpName, m.Key, m.Seq)
		}
	}
	for _, m := range r.log {
		if m.Maybe {
			continue
		}
		if m.Value == nil {
			delete(r.base, m.Key)
		} else {
			r.base[m.Key] = cloneOrNil(m.Value)
		}
		// Every definite mutation is persistent here (checked above), so one
		// issued after a key's rot permanently supersedes the rotted copies.
		// Clear the marker before the superseding mutation leaves the log.
		if rotSeq, ok := r.rotted[m.Key]; ok && m.Seq > rotSeq {
			delete(r.rotted, m.Key)
		}
	}
	r.log = filterMaybes(r.log)
	r.reclaimSinceReboot = false
	return nil
}

// filterMaybes keeps maybe-mutations in the log across a clean reboot: their
// ambiguity persists until a read observes the key.
func filterMaybes(log []Mutation) []Mutation {
	var out []Mutation
	for _, m := range log {
		if m.Maybe {
			out = append(out, m)
		}
	}
	return out
}

// ResolveMaybe collapses maybe-ambiguity for key after a successful read
// observed its value: the maybe mutation whose effect the read witnessed (if
// any) becomes definite — keeping its original dependency, so crash
// reasoning stays sound — and the other maybe mutations for the key are
// discarded. Callers must have validated observed via CheckRead first.
func (r *RefStore) ResolveMaybe(key string, observed []byte) {
	// Find the latest maybe mutation whose value matches the observation.
	witness := -1
	anyMaybe := false
	for i := len(r.log) - 1; i >= 0; i-- {
		m := r.log[i]
		if m.Key != key {
			continue
		}
		if !m.Maybe {
			break // mutations below the newest definite one are superseded
		}
		anyMaybe = true
		if valuesEqual(m.Value, observed) && witness < 0 {
			witness = i
		}
	}
	if !anyMaybe {
		return
	}
	// Check whether the definite state (ignoring maybes) already explains
	// the observation; if so, every maybe mutation simply did not apply.
	definite := r.definiteValue(key)
	definiteMatches := valuesEqual(definite, observed)
	kept := r.log[:0]
	for i, m := range r.log {
		if m.Key == key && m.Maybe {
			if i == witness && !definiteMatches {
				m.Maybe = false // the read proves this effect applied
				kept = append(kept, m)
			}
			continue
		}
		kept = append(kept, m)
	}
	r.log = kept
}

// definiteValue returns the value of key considering only non-maybe
// mutations and the base (nil = absent).
func (r *RefStore) definiteValue(key string) []byte {
	for i := len(r.log) - 1; i >= 0; i-- {
		m := r.log[i]
		if m.Key == key && !m.Maybe {
			return m.Value
		}
	}
	if v, ok := r.base[key]; ok {
		return v
	}
	return nil
}

func valuesEqual(a, b []byte) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || bytes.Equal(a, b)
}

// Clone deep-copies the model state (dependency handles are shared — they
// are immutable from the model's perspective). The exhaustive block-level
// crash enumerator clones the model once per candidate crash state.
func (r *RefStore) Clone() *RefStore {
	out := &RefStore{
		bugs:               r.bugs,
		base:               make(map[string][]byte, len(r.base)),
		log:                append([]Mutation(nil), r.log...),
		hasFailed:          r.hasFailed,
		reclaimSinceReboot: r.reclaimSinceReboot,
		seq:                r.seq,
		rotted:             make(map[string]uint64, len(r.rotted)),
	}
	for k, v := range r.base {
		out.base[k] = cloneOrNil(v)
	}
	for k, s := range r.rotted {
		out.rotted[k] = s
	}
	return out
}

// PendingMutations returns the number of logged mutations (diagnostics).
func (r *RefStore) PendingMutations() int { return len(r.log) }

// DepLog exposes the mutation log for the §5 persistence iteration
// ("the test iterates through the dependencies returned by each mutating
// operation").
func (r *RefStore) DepLog() []Mutation { return append([]Mutation(nil), r.log...) }

func cloneOrNil(v []byte) []byte {
	if v == nil {
		return nil
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out
}

func dedupValues(vals [][]byte) [][]byte {
	var out [][]byte
	for _, v := range vals {
		dup := false
		for _, o := range out {
			if (v == nil) == (o == nil) && (v == nil || bytes.Equal(v, o)) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, v)
		}
	}
	return out
}

func fmtVal(v []byte) string {
	if v == nil {
		return "<absent>"
	}
	if len(v) == 0 {
		return "<empty>"
	}
	if len(v) > 16 {
		return fmt.Sprintf("%d bytes %x...", len(v), v[:16])
	}
	return fmt.Sprintf("%x", v)
}

func fmtVals(vals [][]byte) string {
	out := "{"
	for i, v := range vals {
		if i > 0 {
			out += ", "
		}
		out += fmtVal(v)
	}
	return out + "}"
}
