package chunk

import (
	"encoding/binary"
	"errors"
	"fmt"

	"shardstore/internal/dep"
	"shardstore/internal/disk"
	"shardstore/internal/faults"
	"shardstore/internal/obs"
)

// TestHookGarbageRun, when non-nil, observes every index-run chunk dropped
// as garbage (diagnostics for the bug #14 experiments).
var TestHookGarbageRun func(Locator)

// candidate is a decodable frame found by the reclamation scan.
type candidate struct {
	loc Locator
	tag Tag
	key string
	// payload borrows the extent image of the Reclaim call that scanned it;
	// the image is local to that call and not written after the scan, and put
	// copies the live payloads into their new frames.
	payload []byte
}

// Reclaim garbage-collects one extent (§2.1): scan it for chunks, evacuate
// the ones still referenced (reverse lookup through the registered
// resolvers), update their references, and finally reset the extent's write
// pointer — ordered so that the reset only persists after the evacuations
// and reference updates do.
//
// The scan is deliberately paranoid: it attempts a decode at every page
// boundary and trusts only frames whose trailing UUID and CRC validate, so
// stale frames left by torn writes cannot make it skip over live chunks.
// Three of the paper's seeded bugs weaken exactly this paranoia:
//
//   - bug #1 reintroduces a length-skipping "optimization" with an
//     off-by-one for frames that end exactly on a page boundary;
//   - bug #5 treats a transient read IO error as garbage instead of
//     aborting the reclamation;
//   - bug #10 validates only the portion of the trailing UUID that shares a
//     page with the payload end and skips the CRC — so a chunk torn by a
//     crash can be "successfully" decoded from stale bytes (§5's example).
func (s *Store) Reclaim(victim disk.ExtentID) error {
	ps := s.pageSize()
	start := s.obs.Now()

	s.mu.Lock()
	if int(victim) == s.active || s.pins[victim] > 0 || s.reclaiming[victim] {
		s.mu.Unlock()
		return fmt.Errorf("%w: extent %d", ErrBusy, victim)
	}
	s.reclaiming[victim] = true
	s.mu.Unlock()
	s.met.reclaims.Inc()
	var bg *obs.BgSpan
	if tr := s.obs.Tracer(); tr != nil {
		bg = tr.Background("chunk", fmt.Sprintf("reclaim e%d", victim))
	}

	finish := func(err error) error {
		bg.End()
		s.mu.Lock()
		delete(s.reclaiming, victim)
		s.mu.Unlock()
		if err != nil {
			s.met.reclaimAborts.Inc()
		}
		s.met.reclaimDur.Observe(s.obs.Now() - start)
		return err
	}

	ptr := s.em.Pointer(victim)
	if ptr == 0 {
		return finish(nil)
	}

	// Stream the extent page by page so injected read errors hit at page
	// granularity.
	buf := make([]byte, ptr)
	unreadable := make(map[int]bool) // pages that failed to read (bug #5 path)
	for off := 0; off < ptr; off += ps {
		n := ps
		if off+n > ptr {
			n = ptr - off
		}
		if err := s.em.Read(victim, off, n, buf[off:off+n]); err != nil {
			if s.bugs.Enabled(faults.Bug5ReclaimIOErrorDrop) && errors.Is(err, disk.ErrInjected) {
				// Seeded bug #5: a transient read failure during the scan
				// was treated as a corrupt region rather than aborting, so
				// any live chunk on this page was forgotten and destroyed by
				// the subsequent extent reset.
				s.obs.Hit("chunk.bug5.error_as_garbage")
				unreadable[off/ps] = true
				continue
			}
			s.obs.Hit("chunk.reclaim.abort_ioerror")
			return finish(fmt.Errorf("%w: scan read: %v", ErrAborted, err))
		}
	}

	cands := s.scanForFrames(buf, ptr, ps, unreadable, victim)

	// Evacuate live candidates. Resolvers and appends are invoked without
	// holding s.mu (they re-enter the store and the index).
	var resetWaits []*dep.Dependency
	for _, c := range cands {
		s.mu.Lock()
		resolver := s.resolvers[c.tag]
		s.mu.Unlock()
		if resolver == nil {
			return finish(fmt.Errorf("%w: tag %v", ErrNoResolver, c.tag))
		}
		if !resolver.ChunkLive(c.key, c.loc) {
			s.met.garbageDropped.Inc()
			s.obs.Hit("chunk.reclaim.garbage")
			if c.tag == TagIndexRun {
				s.obs.Hit("chunk.reclaim.garbage_run")
				s.obs.Hit("chunk.reclaim.garbage_run@" + c.loc.String())
				if TestHookGarbageRun != nil {
					TestHookGarbageRun(c.loc)
				}
			}
			continue
		}
		newLoc, newDep, release, err := s.put(c.tag, c.key, c.payload, true, nil)
		if err != nil {
			return finish(fmt.Errorf("%w: evacuation append: %v", ErrAborted, err))
		}
		relocated, rdep, err := resolver.RelocateChunk(c.key, c.loc, newLoc, newDep)
		release()
		if err != nil {
			return finish(fmt.Errorf("%w: relocate: %v", ErrAborted, err))
		}
		if !relocated {
			// Reference changed concurrently; the evacuated copy is garbage
			// and a future reclamation of its extent will drop it.
			s.obs.Hit("chunk.reclaim.relocate_lost_race")
			continue
		}
		s.met.evacuated.Inc()
		s.met.bytesEvacuated.Add(uint64(len(c.payload)))
		s.obs.Hit("chunk.reclaim.evacuated")
		resetWaits = append(resetWaits, dep.All(newDep, rdep))
		// Invalidate the old location so stale cached data cannot outlive
		// the reset.
		s.cache.Invalidate(c.loc.cacheKey())
	}

	// The reset must wait until the index state that unreferences this
	// extent's garbage chunks is durable: a dropped chunk may be garbage
	// only because of a buffered delete or overwrite, and a crash that
	// loses that update would leave the recovered index pointing into the
	// reset extent. SyncReferences flushes buffered reference state and
	// returns a dependency covering it (and, transitively, all earlier
	// index state).
	{
		s.mu.Lock()
		resolvers := make([]Resolver, 0, len(s.resolvers))
		for _, tag := range []Tag{TagData, TagIndexRun} {
			if r := s.resolvers[tag]; r != nil {
				resolvers = append(resolvers, r)
			}
		}
		s.mu.Unlock()
		for _, r := range resolvers {
			sdep, err := r.SyncReferences()
			if err != nil {
				return finish(fmt.Errorf("%w: sync references: %v", ErrAborted, err))
			}
			resetWaits = append(resetWaits, sdep)
		}
	}

	// Quiesce: drive the IO scheduler until the evacuations, reference
	// updates, and everything they depend on are durable. Resetting an
	// extent whose evacuated data is still buffered would either lose that
	// data (if the buffered writes were cancelled) or let the dependency
	// graph tie the reset to writes that in turn wait on it. A synchronous
	// barrier here is the coarse-but-sound ordering enforcement; seeded
	// bug #7 omits it (and the reset gate below), reintroducing the
	// soft/hard write pointer mismatch.
	if !s.bugs.Enabled(faults.Bug7SoftHardPointerSkew) {
		if _, err := s.em.Flush(); err != nil {
			return finish(fmt.Errorf("%w: pre-reset flush: %v", ErrAborted, err))
		}
		if err := s.em.Scheduler().Pump(); err != nil {
			return finish(fmt.Errorf("%w: pre-reset quiesce: %v", ErrAborted, err))
		}
	}

	// Reset the extent. The reset record — and through the extent manager's
	// gate, every subsequent append to this extent — waits for the
	// evacuations and reference updates to persist (already durable after
	// the quiesce, so these waits are satisfied immediately).
	if _, err := s.em.Reset(victim, resetWaits...); err != nil {
		return finish(fmt.Errorf("%w: reset: %v", ErrAborted, err))
	}
	if s.bugs.Enabled(faults.Bug2CacheNotDrained) {
		// Seeded bug #2: the buffer cache was not drained after the reset,
		// so recycled locators could serve the previous chunk's data.
		s.obs.Hit("chunk.bug2.skip_drain")
	} else {
		s.cache.DrainExtent(victim)
	}
	s.mu.Lock()
	s.clearQuarantineLocked(victim)
	s.mu.Unlock()
	s.met.extentsRecycled.Inc()
	s.obs.Hit("chunk.reclaim.reset")
	return finish(nil)
}

// scanForFrames walks the extent image looking for decodable frames.
func (s *Store) scanForFrames(buf []byte, ptr, ps int, unreadable map[int]bool, victim disk.ExtentID) []candidate {
	var cands []candidate
	bug1 := s.bugs.Enabled(faults.Bug1ReclaimOffByOne)
	bug10 := s.bugs.Enabled(faults.Bug10UUIDCollision)
	for p := 0; p*ps < ptr; p++ {
		off := p * ps
		if unreadable[p] {
			continue
		}
		h, err := ParseHeader(buf[off:])
		if err != nil {
			continue
		}
		flen := h.FrameLen()
		if off+flen > ptr {
			s.obs.Hit("chunk.scan.overlong_frame")
			continue
		}
		var key string
		var payload []byte
		if bug10 {
			key, payload, err = decodeFrameLax(buf[off:off+flen], h, off, ps)
			if err == nil {
				s.obs.Hit("chunk.bug10.lax_accept")
			}
		} else {
			_, key, payload, err = DecodeFrame(buf[off : off+flen])
		}
		if err != nil {
			s.met.corruptSkipped.Inc()
			s.obs.Hit("chunk.scan.corrupt_skipped")
			continue
		}
		cands = append(cands, candidate{
			loc:     Locator{Extent: victim, Offset: off, Length: flen},
			tag:     h.Tag,
			key:     key,
			payload: payload,
		})
		if bug1 {
			// Seeded bug #1: skip the pages this frame consumed. The loop's
			// own p++ makes the combined advance flen/ps + 1 pages — correct
			// whenever the frame ends mid-page, one page too many when the
			// frame ends exactly on a page boundary, silently skipping (and
			// thus destroying) the chunk that starts there.
			p += flen / ps
			s.obs.Hit("chunk.bug1.length_skip")
		} else if bug10 {
			// The buggy scan also trusted the accepted frame's length and
			// skipped past it ("reclamation does not expect overlapping
			// chunks", §5) — so a stale frame accepted via the lax check
			// swallows the live chunks its claimed extent overlaps.
			p += (flen+ps-1)/ps - 1
		}
	}
	return cands
}

// decodeFrameLax is the bug #10 validation: it compares only the trailing
// UUID bytes that live on the same page as the start of the trailer, and
// performs no CRC check. A chunk whose trailer spills onto a page that a
// crash tore away therefore validates against stale bytes (§5's example:
// "this logic fails if the trailing bytes of the first chunk's UUID ... are
// the same as the magic bytes").
func decodeFrameLax(frame []byte, h Header, extOff, ps int) (string, []byte, error) {
	total := h.FrameLen()
	trailerStart := total - uuidLen
	absTrailer := extOff + trailerStart
	cmp := ps - absTrailer%ps
	// The buggy "cheap" validation compared only a short prefix of the
	// trailing UUID — and never past the page the trailer starts on.
	if cmp > 4 {
		cmp = 4
	}
	for i := 0; i < cmp; i++ {
		if frame[trailerStart+i] != h.UUID[i] {
			return "", nil, ErrUUIDMissing
		}
	}
	key := string(frame[headerFixedLen : headerFixedLen+h.KeyLen])
	payload := frame[headerFixedLen+h.KeyLen : headerFixedLen+h.KeyLen+h.PayloadLen]
	return key, payload, nil
}

// VerifyFrameBytes re-validates raw frame bytes; exported for the
// serialization-robustness property tests (§7): for any byte sequence it
// must return an error or a decoded frame, never panic.
func VerifyFrameBytes(buf []byte) error {
	_, _, _, err := DecodeFrame(buf)
	return err
}

// EncodeLocator serializes a locator (used by the KV layer's index entries).
func EncodeLocator(l Locator) []byte {
	out := make([]byte, 0, 12)
	out = binary.BigEndian.AppendUint32(out, uint32(l.Extent))
	out = binary.BigEndian.AppendUint32(out, uint32(l.Offset))
	out = binary.BigEndian.AppendUint32(out, uint32(l.Length))
	return out
}

// DecodeLocator parses a locator serialized by EncodeLocator.
func DecodeLocator(buf []byte) (Locator, []byte, error) {
	if len(buf) < 12 {
		return Locator{}, nil, fmt.Errorf("chunk: short locator: %d bytes", len(buf))
	}
	l := Locator{
		Extent: disk.ExtentID(binary.BigEndian.Uint32(buf[0:4])),
		Offset: int(binary.BigEndian.Uint32(buf[4:8])),
		Length: int(binary.BigEndian.Uint32(buf[8:12])),
	}
	return l, buf[12:], nil
}
