package store

import "errors"

// Scan implements KV.Scan: the live shards in [start, end) in ascending
// key order, newest value per shard, bounded by limit. The index scan is
// snapshot-consistent (pinned by the LSM manifest generation); each entry's
// chunks are then read and owner-validated exactly like Get, with the same
// stale-locator retry, so a relocation racing the scan cannot surface
// foreign bytes.
func (s *Store) Scan(start, end string, limit int) ([]ScanEntry, bool, error) {
	opStart := s.obs.Now()
	out, more, err := s.scanInner(start, end, limit)
	if err != nil {
		s.met.scanErrors.Inc()
	} else {
		s.met.scans.Inc()
		s.met.scanEntries.Add(uint64(len(out)))
		s.met.scanLat.Observe(s.obs.Now() - opStart)
	}
	return out, more, err
}

func (s *Store) scanInner(start, end string, limit int) ([]ScanEntry, bool, error) {
	if err := s.requireInService(); err != nil {
		return nil, false, err
	}
	idxEntries, more, err := s.idx.Scan(start, end, limit)
	if err != nil {
		return nil, false, err
	}
	out := make([]ScanEntry, 0, len(idxEntries))
	for _, e := range idxEntries {
		groups, derr := DecodeEntryGroups(e.Value)
		var data []byte
		if derr == nil {
			data, derr = s.readChunks(e.Key, groups)
		}
		if derr != nil {
			// The snapshot's locators can be stale by read time (reclamation
			// relocated the chunks): retry through the point-read path, which
			// refreshes locators via the index. A shard deleted since the
			// snapshot simply drops out of the page.
			s.obs.Hit("store.scan.reread")
			data, derr = s.getInner(e.Key)
			if errors.Is(derr, ErrNotFound) {
				continue
			}
			if derr != nil {
				return nil, false, derr
			}
		}
		out = append(out, ScanEntry{Key: e.Key, Value: data})
	}
	s.obs.Hit("store.scan")
	return out, more, nil
}
