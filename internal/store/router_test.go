package store_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/store"
)

// mapBackend is a minimal in-memory Backend for routing and tiering tests,
// with injectable failure modes — down makes every operation fail (a dead
// replica), failPuts fails only writes (a full disk, a rejecting server) —
// and counted batch calls, so tests can assert traffic travelled batched.
// Like a remote replica it cannot enumerate its keys.
type mapBackend struct {
	mu         sync.Mutex
	m          map[string][]byte
	down       bool
	failPuts   bool
	putBatches []int // entry count of each PutBatch call
	getBatches int
	hasBatches int
}

func newMapBackend() *mapBackend { return &mapBackend{m: make(map[string][]byte)} }

var errDown = errors.New("backend down")

func (b *mapBackend) GetBatch(keys []string) (map[string][]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.getBatches++
	out := make(map[string][]byte, len(keys))
	if b.down {
		return out, errDown
	}
	for _, k := range keys {
		if v, ok := b.m[k]; ok {
			out[k] = v
		}
	}
	return out, nil
}

func (b *mapBackend) HasBatch(keys []string) (map[string]bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.hasBatches++
	out := make(map[string]bool, len(keys))
	if b.down {
		return out, errDown
	}
	for _, k := range keys {
		if _, ok := b.m[k]; ok {
			out[k] = true
		}
	}
	return out, nil
}

func (b *mapBackend) PutBatch(entries []store.Entry) (added, lost int, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.putBatches = append(b.putBatches, len(entries))
	if b.down || b.failPuts {
		return 0, len(entries), errDown
	}
	for _, e := range entries {
		if _, ok := b.m[e.Key]; !ok {
			added++
		}
		b.m[e.Key] = e.Val
	}
	return added, 0, nil
}

func (b *mapBackend) Delete(keys []string) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.down {
		return 0, errDown
	}
	n := 0
	for _, k := range keys {
		if _, ok := b.m[k]; ok {
			delete(b.m, k)
			n++
		}
	}
	return n, nil
}

func (b *mapBackend) Keys() []string { return nil }

func (b *mapBackend) Stats() store.BackendStats { return store.BackendStats{Len: b.Len()} }

func (b *mapBackend) Close() error { return nil }

// Len and has inspect the map directly, failure modes aside.
func (b *mapBackend) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.m)
}

func (b *mapBackend) has(k string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.m[k]
	return ok
}

// putOne, getOne and hasOne are one-key batches against a backend.
func putOne(be store.Backend, k string, v []byte) error {
	_, _, err := be.PutBatch([]store.Entry{{Key: k, Val: v}})
	return err
}

func getOne(be store.Backend, k string) ([]byte, bool, error) {
	m, err := be.GetBatch([]string{k})
	v, ok := m[k]
	return v, ok, err
}

func hasOne(be store.Backend, k string) bool {
	m, _ := be.HasBatch([]string{k})
	return m[k]
}

func TestRouterImplementsBatchInterfaces(t *testing.T) {
	var _ store.Backend = (*store.Router)(nil)
	var _ store.Backend = (*store.Tiered)(nil)
	var _ store.Backend = (*store.NDJSON)(nil)
}

// TestRouterPartitionsKeySpace pins the routing invariant: every key lands
// on exactly the replica the ring assigns it, so all fleet processes agree
// on placement and replica key spaces stay disjoint.
func TestRouterPartitionsKeySpace(t *testing.T) {
	replicas := []*mapBackend{newMapBackend(), newMapBackend(), newMapBackend()}
	r := store.NewRouter(replicas[0], replicas[1], replicas[2])
	defer r.Close()

	const n = 120
	keys := make([]string, n)
	for i := range keys {
		keys[i] = store.Key("v1", i)
		if err := putOne(r, keys[i], []byte(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range keys {
		owner := r.Ring().Owner(k)
		for ri, be := range replicas {
			if got := be.has(k); got != (ri == owner) {
				t.Fatalf("key %d: replica %d has=%v, owner is %d", i, ri, got, owner)
			}
		}
		if v, ok, err := getOne(r, k); !ok || err != nil || string(v) != fmt.Sprintf(`{"i":%d}`, i) {
			t.Fatalf("key %d: %q ok=%v err=%v", i, v, ok, err)
		}
		if !hasOne(r, k) {
			t.Fatalf("key %d: Has=false after Put", i)
		}
	}
	sum := 0
	for ri, be := range replicas {
		if be.Len() == 0 {
			t.Fatalf("replica %d never hit over %d keys — partition is degenerate", ri, n)
		}
		sum += be.Len()
	}
	if sum != n || r.Stats().Len != n {
		t.Fatalf("sum of replicas %d, router Len %d, want %d (disjoint partition)", sum, r.Stats().Len, n)
	}
}

// TestRouterBatchesSplitPerReplica pins that batch calls stay batched: one
// sub-batch per replica, merged replies, no per-key fallback on the healthy
// path.
func TestRouterBatchesSplitPerReplica(t *testing.T) {
	replicas := []*mapBackend{newMapBackend(), newMapBackend(), newMapBackend()}
	r := store.NewRouter(replicas[0], replicas[1], replicas[2])
	defer r.Close()

	entries := make([]store.Entry, 60)
	keys := make([]string, len(entries))
	for i := range entries {
		keys[i] = store.Key("v1", i)
		entries[i] = store.Entry{Key: keys[i], Val: []byte(fmt.Sprintf(`{"i":%d}`, i))}
	}
	added, lost, err := r.PutBatch(entries)
	if err != nil || added != len(entries) || lost != 0 {
		t.Fatalf("PutBatch added=%d lost=%d err=%v, want %d, 0, nil", added, lost, err, len(entries))
	}
	got, err := r.GetBatch(keys)
	if err != nil || len(got) != len(keys) {
		t.Fatalf("GetBatch returned %d err=%v, want %d", len(got), err, len(keys))
	}
	present, err := r.HasBatch(keys)
	if err != nil || len(present) != len(keys) {
		t.Fatalf("HasBatch returned %d err=%v, want %d", len(present), err, len(keys))
	}
	for ri, be := range replicas {
		if len(be.putBatches) != 1 || be.getBatches != 1 || be.hasBatches != 1 {
			t.Fatalf("replica %d saw putBatches=%v getBatches=%d hasBatches=%d, want one sub-batch each",
				ri, be.putBatches, be.getBatches, be.hasBatches)
		}
		if be.putBatches[0] != be.Len() {
			t.Fatalf("replica %d sub-batch carried %d entries for %d keys", ri, be.putBatches[0], be.Len())
		}
	}
}

// TestRouterDownReplicaDegradesToMiss is the failover discipline: with one
// of three replicas down, its keys read as misses and write as counted
// failures while the other replicas keep serving — never an error into the
// simulation, never lost hits on the healthy replicas.
func TestRouterDownReplicaDegradesToMiss(t *testing.T) {
	replicas := []*mapBackend{newMapBackend(), newMapBackend(), newMapBackend()}
	r := store.NewRouter(replicas[0], replicas[1], replicas[2])
	st := store.New(0, r)
	defer st.Close()

	const n = 60
	keys := make([]string, n)
	for i := range keys {
		keys[i] = store.Key("v1", i)
		st.Put(keys[i], []byte(fmt.Sprintf(`{"i":%d}`, i)))
	}
	if s := st.Stats(); s.PutErrors != 0 {
		t.Fatalf("healthy puts failed: %+v", s)
	}

	const sick = 1
	replicas[sick].down = true
	// A fresh Store: the LRU of the priming store would mask the backend.
	cold := store.New(0, r)
	hits, misses := 0, 0
	for _, k := range keys {
		if _, ok := cold.Get(k); ok {
			hits++
		} else {
			misses++
		}
	}
	sickKeys := 0
	for _, k := range keys {
		if r.Ring().Owner(k) == sick {
			sickKeys++
		}
	}
	if misses != sickKeys || hits != n-sickKeys {
		t.Fatalf("hits=%d misses=%d, want %d and %d: exactly the down replica's keys degrade",
			hits, misses, n-sickKeys, sickKeys)
	}

	// Batch reads keep the healthy replicas' answers, and report the
	// down replica's failure beside them.
	got, err := r.GetBatch(keys)
	if err == nil || len(got) != n-sickKeys {
		t.Fatalf("GetBatch with a down replica: %d entries err=%v, want %d and an error", len(got), err, n-sickKeys)
	}
	present, err := r.HasBatch(keys)
	if err == nil || len(present) != n-sickKeys {
		t.Fatalf("HasBatch with a down replica: %d present err=%v, want %d and an error", len(present), err, n-sickKeys)
	}

	// A read-only outage is diagnosed per replica but is NOT degradation:
	// nothing was written, nothing was lost — only misses happened.
	fails := r.Failures()
	for ri, f := range fails {
		if (ri == sick) != (f > 0) {
			t.Fatalf("replica %d failures=%d (want >0 only for replica %d): %v", ri, f, sick, fails)
		}
	}
	if got := r.Stats().Degraded; got != 0 {
		t.Fatalf("read-only failures counted as degraded writes: %d", got)
	}

	// Writes to the down replica are counted failures — exactly one lost
	// entry per down-replica key; the other replicas still take theirs.
	for _, k := range keys {
		cold.Put(k, []byte(`{"rewrite":true}`))
	}
	if s := cold.Stats(); s.PutErrors != int64(sickKeys) {
		t.Fatalf("putErrors=%d, want %d (one per down-replica key)", s.PutErrors, sickKeys)
	}
	if got := r.Stats().Degraded; got != int64(sickKeys) {
		t.Fatalf("Degraded=%d, want exactly the %d lost writes", got, sickKeys)
	}

	// Recovery: the replica comes back, its keys are re-writable and
	// re-readable; nothing about the healthy replicas changed.
	replicas[sick].down = false
	for _, k := range keys {
		if r.Ring().Owner(k) == sick {
			if err := putOne(r, k, []byte(`{"back":true}`)); err != nil {
				t.Fatalf("recovered replica rejected a write: %v", err)
			}
		}
	}
	if got := r.Stats().Len; got != n {
		t.Fatalf("Len=%d after recovery, want %d", got, n)
	}
}

// TestRouterPutBatchReportsPartialPlacement pins that a half-failed batch
// write is not a silent success: added counts only landed entries and the
// error names the failing replica.
func TestRouterPutBatchReportsPartialPlacement(t *testing.T) {
	healthy, sick := newMapBackend(), newMapBackend()
	sick.failPuts = true
	r := store.NewRouter(healthy, sick)
	defer r.Close()

	entries := make([]store.Entry, 40)
	sickCount := 0
	for i := range entries {
		k := store.Key("v1", i)
		entries[i] = store.Entry{Key: k, Val: []byte(`{"v":1}`)}
		if r.Ring().Owner(k) == 1 {
			sickCount++
		}
	}
	added, lost, err := r.PutBatch(entries)
	if err == nil {
		t.Fatal("partial placement must return an error")
	}
	if added != len(entries)-sickCount || lost != sickCount {
		t.Fatalf("added=%d lost=%d, want %d and %d (only the healthy replica's entries land)", added, lost, len(entries)-sickCount, sickCount)
	}
	if healthy.Len() != added || sick.Len() != 0 {
		t.Fatalf("placement: healthy=%d sick=%d, want %d and 0", healthy.Len(), sick.Len(), added)
	}
	if got := r.Stats().Degraded; got != int64(sickCount) {
		t.Fatalf("Degraded=%d, want exactly the %d entries the sick replica lost", got, sickCount)
	}

	// Precision under overwrites: re-batching the same entries lands the
	// healthy replica's as successful overwrites (added=0) — they must not
	// be miscounted as lost just because nothing was "added".
	before := r.Stats().Degraded
	added, lost, err = r.PutBatch(entries)
	if err == nil || added != 0 || lost != sickCount {
		t.Fatalf("overwrite re-batch: added=%d lost=%d err=%v, want 0, %d and the sick replica's error", added, lost, err, sickCount)
	}
	if got := r.Stats().Degraded - before; got != int64(sickCount) {
		t.Fatalf("overwrite re-batch lost %d, want %d: landed overwrites counted as lost", got, sickCount)
	}
}

// TestTieredOverRouterCountsLossesOnce pins the composed accounting: a
// Tiered near tier over a Router with one down replica absorbs every
// write locally (zero put errors), while Degraded reports exactly the
// entries the down replica never took — counted once, not once per layer,
// and never inflated by the healthy replica's successful overwrites.
func TestTieredOverRouterCountsLossesOnce(t *testing.T) {
	healthy, down := newMapBackend(), newMapBackend()
	down.down = true
	router := store.NewRouter(healthy, down)
	nearDir := t.TempDir()
	near, err := store.OpenNDJSON(nearDir)
	if err != nil {
		t.Fatal(err)
	}
	st := store.New(0, store.NewTiered(near, router))
	defer st.Close()

	const n = 30
	downCount := 0
	for i := 0; i < n; i++ {
		k := store.Key("v1", i)
		if router.Ring().Owner(k) == 1 {
			downCount++
		}
		st.Buffer(store.Entry{Key: k, Val: []byte(fmt.Sprintf(`{"i":%d}`, i))})
	}
	st.Flush()
	s := st.Stats()
	if s.PutErrors != 0 {
		t.Fatalf("putErrors=%d, want 0: the near tier landed every entry", s.PutErrors)
	}
	if s.Degraded != int64(downCount) {
		t.Fatalf("degraded=%d, want exactly the %d entries the down replica never took", s.Degraded, downCount)
	}
	if got := near.Stats().Len; got != n || healthy.Len() != n-downCount {
		t.Fatalf("placement: near=%d healthy=%d, want %d and %d", got, healthy.Len(), n, n-downCount)
	}
}
