package lsm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// A run is an immutable sorted sequence of key/value entries, serialized as
// one chunk payload. Tombstones (deletions) are entries with a sentinel
// value length so they shadow older runs until a full compaction drops them.

const tombstoneLen = 0xFFFFFFFF

// Entry is one key/value pair in a run or memtable.
type Entry struct {
	Key       string
	Value     []byte
	Tombstone bool
}

// ErrCorruptRun is returned when run bytes fail to decode.
var ErrCorruptRun = errors.New("lsm: corrupt run")

// encodeRun serializes entries (which must be sorted by key).
func encodeRun(entries []Entry) []byte {
	size := 4
	for _, e := range entries {
		size += 2 + len(e.Key) + 4 + len(e.Value)
	}
	buf := make([]byte, 0, size)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(entries)))
	for _, e := range entries {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(e.Key)))
		buf = append(buf, e.Key...)
		if e.Tombstone {
			buf = binary.BigEndian.AppendUint32(buf, tombstoneLen)
			continue
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(e.Value)))
		buf = append(buf, e.Value...)
	}
	return buf
}

// decodeRun parses run bytes. It is written defensively — on-disk data is
// untrusted (§7: deserializers must never panic on corrupt input).
func decodeRun(buf []byte) ([]Entry, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("%w: short header", ErrCorruptRun)
	}
	count := int(binary.BigEndian.Uint32(buf[:4]))
	pos := 4
	if count < 0 || count > len(buf) {
		return nil, fmt.Errorf("%w: implausible entry count %d", ErrCorruptRun, count)
	}
	entries := make([]Entry, 0, count)
	for i := 0; i < count; i++ {
		if pos+2 > len(buf) {
			return nil, fmt.Errorf("%w: truncated key length", ErrCorruptRun)
		}
		klen := int(binary.BigEndian.Uint16(buf[pos : pos+2]))
		pos += 2
		if pos+klen+4 > len(buf) {
			return nil, fmt.Errorf("%w: truncated key/value length", ErrCorruptRun)
		}
		key := string(buf[pos : pos+klen])
		pos += klen
		vlen := binary.BigEndian.Uint32(buf[pos : pos+4])
		pos += 4
		if vlen == tombstoneLen {
			entries = append(entries, Entry{Key: key, Tombstone: true})
			continue
		}
		if vlen > uint32(len(buf)-pos) {
			return nil, fmt.Errorf("%w: truncated value", ErrCorruptRun)
		}
		entries = append(entries, Entry{Key: key, Value: append([]byte(nil), buf[pos:pos+int(vlen)]...)})
		pos += int(vlen)
	}
	// Strictly ascending: the merge relies on each source holding a key once.
	for i := 1; i < len(entries); i++ {
		if entries[i-1].Key >= entries[i].Key {
			return nil, fmt.Errorf("%w: keys not strictly ascending", ErrCorruptRun)
		}
	}
	return entries, nil
}

// searchRun finds key in sorted entries.
func searchRun(entries []Entry, key string) (Entry, bool) {
	i := sort.Search(len(entries), func(i int) bool { return entries[i].Key >= key })
	if i < len(entries) && entries[i].Key == key {
		return entries[i], true
	}
	return Entry{}, false
}

// mergeIter is the merge of Keys and every compaction (Scan's is still
// mergeRuns in scan.go): it walks sorted sources in ascending key order and
// yields, for each key, the entry of the first source holding it. Sources are ordered newest first and each is strictly ascending (what
// decodeRun enforces), so "first source" is newest-wins. Tombstones are
// yielded like any entry; whether a marker may be elided depends on what lies
// below the merge, which only the caller knows. With at most
// MaxRuns+MaxLevels+2 sources a linear minimum beats a heap.
type mergeIter struct {
	srcs [][]Entry // each cut to its unconsumed suffix
}

// newMergeIter positions every source at its first key >= start.
func newMergeIter(srcs [][]Entry, start string) *mergeIter {
	m := &mergeIter{srcs: make([][]Entry, len(srcs))}
	for i, s := range srcs {
		m.srcs[i] = s[sort.Search(len(s), func(j int) bool { return s[j].Key >= start }):]
	}
	return m
}

// next returns the newest entry of the smallest unconsumed key, and false
// once every source is exhausted.
func (m *mergeIter) next() (Entry, bool) {
	best := -1
	for i, s := range m.srcs {
		if len(s) > 0 && (best < 0 || s[0].Key < m.srcs[best][0].Key) {
			best = i
		}
	}
	if best < 0 {
		return Entry{}, false
	}
	e := m.srcs[best][0]
	// Sources newer than best hold only larger keys (the strict < keeps the
	// first of equal heads), so the shadowed duplicates sit at or after it.
	for i := best; i < len(m.srcs); i++ {
		if s := m.srcs[i]; len(s) > 0 && s[0].Key == e.Key {
			m.srcs[i] = s[1:]
		}
	}
	return e, true
}

// DecodeRunForTest exposes decodeRun to the serialization-robustness
// property tests (§7).
func DecodeRunForTest(buf []byte) ([]Entry, error) { return decodeRun(buf) }
