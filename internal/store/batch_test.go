package store

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"shardstore/internal/faults"
	"shardstore/internal/obs"
)

func newBatchStore(t *testing.T) *Store {
	t.Helper()
	st, _, err := New(Config{Seed: 7, Bugs: faults.NewSet(), Obs: obs.New(nil).WithProbes()})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestBatchRoundTrip(t *testing.T) {
	st := newBatchStore(t)
	ids := make([]string, 10)
	vals := make([][]byte, 10)
	for i := range ids {
		ids[i] = fmt.Sprintf("b-%02d", i)
		vals[i] = bytes.Repeat([]byte{byte(i + 1)}, 4+i)
	}
	for i, err := range st.PutBatch(ids, vals) {
		if err != nil {
			t.Fatalf("put item %d: %v", i, err)
		}
	}
	got, errs := st.GetBatch(ids)
	for i := range ids {
		if errs[i] != nil || !bytes.Equal(got[i], vals[i]) {
			t.Fatalf("get item %d: %q %v", i, got[i], errs[i])
		}
	}
	for i, err := range st.DeleteBatch(ids[:5]) {
		if err != nil {
			t.Fatalf("delete item %d: %v", i, err)
		}
	}
	got, errs = st.GetBatch(ids)
	for i := range ids {
		if i < 5 {
			if !errors.Is(errs[i], ErrNotFound) {
				t.Fatalf("deleted item %d: %q %v", i, got[i], errs[i])
			}
		} else if errs[i] != nil {
			t.Fatalf("surviving item %d: %v", i, errs[i])
		}
	}
}

// TestBatchPerItemErrors: one bad item does not fail the batch — every other
// slot still runs and reports its own outcome.
func TestBatchPerItemErrors(t *testing.T) {
	st := newBatchStore(t)
	if _, err := st.Put("exists", []byte("v")); err != nil {
		t.Fatal(err)
	}
	_, errs := st.GetBatch([]string{"missing-a", "exists", "missing-b"})
	if !errors.Is(errs[0], ErrNotFound) || !errors.Is(errs[2], ErrNotFound) {
		t.Fatalf("missing slots: %v", errs)
	}
	if errs[1] != nil {
		t.Fatalf("existing slot: %v", errs[1])
	}
	// Delete is idempotent at the store layer: a missing id is a nil outcome,
	// same as the single-op Delete.
	derrs := st.DeleteBatch([]string{"missing-a", "exists"})
	if derrs[0] != nil || derrs[1] != nil {
		t.Fatalf("delete outcomes: %v", derrs)
	}
	if _, err := st.Get("exists"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("exists not deleted: %v", err)
	}
}

// TestBatchCoverageAndInterfaces: the batch entry points are coverage-visible
// and Store satisfies the KV interface the RPC server consumes.
func TestBatchCoverageAndInterfaces(t *testing.T) {
	st := newBatchStore(t)
	var _ KV = st
	st.PutBatch([]string{"c"}, [][]byte{{1}})
	st.GetBatch([]string{"c"})
	st.DeleteBatch([]string{"c"})
	hits := st.obs.Snapshot().Probes
	for _, point := range []string{"store.put_batch", "store.get_batch", "store.delete_batch"} {
		if hits[point] == 0 {
			t.Fatalf("coverage point %q never hit: %v", point, hits)
		}
	}
}
