package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
)

// TestScanOverRPC: a scan merges every disk's ordered page into one sorted,
// complete range — across memtable and flushed state, shrinking on delete.
func TestScanOverRPC(t *testing.T) {
	ctx := context.Background()
	srv, c := newTestServer(t, 3)
	want := make(map[string]string)
	for i := 0; i < 30; i++ {
		k, v := fmt.Sprintf("k%02d", i), fmt.Sprintf("v%02d", i)
		if err := c.Put(ctx, k, []byte(v)); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	// Flush every disk mid-history so the scan spans flushed runs AND the
	// memtable writes that follow.
	for i := range srv.stats().ShardsPer {
		if err := c.Flush(ctx, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 30; i < 40; i++ {
		k, v := fmt.Sprintf("k%02d", i), fmt.Sprintf("v%02d", i)
		if err := c.Put(ctx, k, []byte(v)); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}

	entries, next, err := c.Scan(ctx, "", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if next != "" {
		t.Fatalf("full scan truncated, next %q", next)
	}
	if len(entries) != len(want) {
		t.Fatalf("full scan: %d entries, want %d", len(entries), len(want))
	}
	for i, e := range entries {
		if i > 0 && entries[i-1].Key >= e.Key {
			t.Fatalf("scan out of order at %d: %q >= %q", i, entries[i-1].Key, e.Key)
		}
		if want[e.Key] != string(e.Value) {
			t.Fatalf("scan %q = %q, want %q", e.Key, e.Value, want[e.Key])
		}
	}

	sub, _, err := c.Scan(ctx, "k05", "k10", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 5 || sub[0].Key != "k05" || sub[4].Key != "k09" {
		t.Fatalf("sub-range scan: %+v", sub)
	}

	if err := c.Delete(ctx, "k07"); err != nil {
		t.Fatal(err)
	}
	sub, _, err = c.Scan(ctx, "k05", "k10", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range sub {
		if e.Key == "k07" {
			t.Fatal("deleted shard still in scan")
		}
	}
	if len(sub) != 4 {
		t.Fatalf("sub-range after delete: %d entries", len(sub))
	}
}

// TestScanContinuationToken: a limited page stops at the limit with a
// resumable token (last key + \x00); walking tokens reassembles the exact
// ordered range with no duplicates or gaps.
func TestScanContinuationToken(t *testing.T) {
	ctx := context.Background()
	_, c := newTestServer(t, 3)
	var want []string
	for i := 0; i < 30; i++ {
		k := fmt.Sprintf("k%02d", i)
		if err := c.Put(ctx, k, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		want = append(want, k)
	}
	sort.Strings(want)

	var got []string
	cursor, pages := "", 0
	for {
		entries, next, err := c.Scan(ctx, cursor, "", 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) > 7 {
			t.Fatalf("page of %d exceeds limit 7", len(entries))
		}
		for _, e := range entries {
			got = append(got, e.Key)
		}
		pages++
		if next == "" {
			break
		}
		if len(entries) > 0 && next != entries[len(entries)-1].Key+"\x00" {
			t.Fatalf("token %q does not resume after %q", next, entries[len(entries)-1].Key)
		}
		cursor = next
		if pages > 30 {
			t.Fatal("scan never exhausted")
		}
	}
	if pages < 5 {
		t.Fatalf("30 keys at limit 7 took %d pages", pages)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("paged scan reassembled %v, want %v", got, want)
	}
}

// TestScanIteratorRefetch: the client-side Iterator refetches pages through
// continuation tokens transparently — callers see one seamless cursor.
func TestScanIteratorRefetch(t *testing.T) {
	ctx := context.Background()
	_, c := newTestServer(t, 3)
	want := make(map[string]byte)
	for i := 0; i < 41; i++ {
		k := fmt.Sprintf("s%03d", i)
		if err := c.Put(ctx, k, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		want[k] = byte(i)
	}
	it := c.Iterator(ctx, "", "", 5)
	var keys []string
	for it.Next() {
		e := it.Entry()
		if want[e.Key] != e.Value[0] {
			t.Fatalf("iterator %q = %v", e.Key, e.Value)
		}
		keys = append(keys, e.Key)
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if len(keys) != len(want) {
		t.Fatalf("iterator walked %d keys, want %d", len(keys), len(want))
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatalf("iterator out of order: %v", keys)
	}

	// A bounded sub-range walk honors the exclusive upper bound.
	it = c.Iterator(ctx, "s010", "s020", 3)
	keys = keys[:0]
	for it.Next() {
		keys = append(keys, it.Entry().Key)
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 10 || keys[0] != "s010" || keys[9] != "s019" {
		t.Fatalf("bounded iterator: %v", keys)
	}
}

// TestScanIteratorServerClosed: when the server closes mid-walk, the
// Iterator hands out the page it already holds, then Next returns false and
// Err reports the failed fetch — the end of the walk is never mistaken for
// the end of the range. A one-page Scan fails the same way.
func TestScanIteratorServerClosed(t *testing.T) {
	ctx := context.Background()
	srv, c := newTestServer(t, 2)
	for i := 0; i < 30; i++ {
		if err := c.Put(ctx, fmt.Sprintf("w%02d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	it := c.Iterator(ctx, "", "", 5)
	if !it.Next() {
		t.Fatalf("first page: %v", it.Err())
	}
	srv.Close()
	n := 1
	for it.Next() {
		n++
	}
	if n != 5 {
		t.Fatalf("iterator yielded %d entries after the server closed, want the 5 of its buffered page", n)
	}
	if it.Err() == nil {
		t.Fatal("iterator stopped with a nil Err although the range was not exhausted")
	}
	if _, _, err := c.Scan(ctx, "", "", 0); err == nil {
		t.Fatal("scan on a closed server succeeded")
	}
}

// firstItemErr flattens a per-item batch outcome into its first failure.
func firstItemErr(errs []error, err error) error {
	if err != nil {
		return err
	}
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// TestBatchPerItemOutcomes drives the multi-ops with mixed present/missing
// keys steered across disks and an oversized item, checking outcomes land at
// the right slots and the connection outlives the oversized rejection.
func TestBatchPerItemOutcomes(t *testing.T) {
	ctx := context.Background()
	_, c := newTestServer(t, 2)
	for _, k := range []string{"a", "c"} {
		if err := c.Put(ctx, k, []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}

	res, err := c.MGet(ctx, []string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil || !bytes.Equal(res[0].Value, []byte("v-a")) {
		t.Fatalf("mget[0]: %+v", res[0])
	}
	if !errors.Is(res[1].Err, ErrNotFound) {
		t.Fatalf("mget[1] missing key: %v", res[1].Err)
	}
	if res[2].Err != nil || !bytes.Equal(res[2].Value, []byte("v-c")) {
		t.Fatalf("mget[2]: %+v", res[2])
	}

	// Deletes are blind tombstone writes: a missing key succeeds too.
	errs, err := c.MDelete(ctx, []string{"a", "nope"})
	if err != nil {
		t.Fatal(err)
	}
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("mdelete outcomes: %v", errs)
	}
	if _, err := c.Get(ctx, "a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("mdelete did not delete: %v", err)
	}

	errs, err = c.MPut(ctx, []string{"x", "y"}, [][]byte{[]byte("1"), []byte("2")})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("mput[%d]: %v", i, e)
		}
	}

	// An oversized item rejects the whole frame client-side, before any
	// byte hits the wire: no partial application, and the connection (and
	// its pending map) survives for the next call.
	big := make([]byte, MaxFrame+1)
	if _, err := c.MPut(ctx, []string{"small", "big"}, [][]byte{[]byte("s"), big}); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized mput: %v", err)
	}
	if _, err := c.Get(ctx, "small"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("oversized mput partially applied: %v", err)
	}
	v, err := c.Get(ctx, "x")
	if err != nil || !bytes.Equal(v, []byte("1")) {
		t.Fatalf("connection after oversized frame: %q %v", v, err)
	}
	if n := c.pendingCount(); n != 0 {
		t.Fatalf("pending map not drained: %d", n)
	}
}
