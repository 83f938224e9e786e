package store_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
)

// TestWriteBufferBatchesAndFlushes pins the store's buffered write path:
// values are readable in-process immediately, nothing reaches the backend
// until the flush barrier, and the flush is one PutBatch — not one write
// per key.
func TestWriteBufferBatchesAndFlushes(t *testing.T) {
	be := newMapBackend()
	st := store.New(0, be)
	defer st.Close()

	keys := make([]string, 5)
	for i := range keys {
		keys[i] = store.Key("v1", i)
		st.Buffer(store.Entry{Key: keys[i], Val: []byte(fmt.Sprintf(`{"i":%d}`, i))})
	}
	for i, k := range keys {
		if v, ok := st.Get(k); !ok || string(v) != fmt.Sprintf(`{"i":%d}`, i) {
			t.Fatalf("buffered key %d unreadable in-process: %q ok=%v", i, v, ok)
		}
	}
	if be.Len() != 0 {
		t.Fatalf("backend saw %d writes before the flush barrier", be.Len())
	}
	st.Flush()
	if be.Len() != len(keys) {
		t.Fatalf("backend holds %d entries after flush, want %d", be.Len(), len(keys))
	}
	if len(be.putBatches) != 1 || be.putBatches[0] != len(keys) {
		t.Fatalf("flush issued batches %v, want one batch of %d", be.putBatches, len(keys))
	}
	if s := st.Stats(); s.Puts != int64(len(keys)) || s.PutErrors != 0 {
		t.Fatalf("stats %+v, want puts=%d putErrors=0", s, len(keys))
	}
	// An empty flush (and Close) is a no-op, not an empty request.
	st.Flush()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if len(be.putBatches) != 1 {
		t.Fatalf("empty flushes issued batches: %v", be.putBatches)
	}
}

// TestWriteBufferAutoFlushAtCapacity pins the size bound: the buffer
// cannot grow past one 512-entry batch; it flushes a full batch and keeps
// going.
func TestWriteBufferAutoFlushAtCapacity(t *testing.T) {
	be := newMapBackend()
	st := store.New(0, be)
	defer st.Close()

	const n = 2*512 + 1
	for i := 0; i < n; i++ {
		st.Buffer(store.Entry{Key: store.Key("v1", i), Val: []byte(`{"v":1}`)})
	}
	if got := fmt.Sprint(be.putBatches); got != "[512 512]" {
		t.Fatalf("batch sizes before the barrier %v, want [512 512] (two full batches)", be.putBatches)
	}
	st.Flush()
	if got := fmt.Sprint(be.putBatches); got != "[512 512 1]" {
		t.Fatalf("batch sizes %v, want [512 512 1] (two full batches, one tail)", be.putBatches)
	}
	if be.Len() != n {
		t.Fatalf("backend holds %d entries, want %d", be.Len(), n)
	}
}

// TestWriteBufferFailedFlushDegrades pins the failure discipline: a failed
// flush counts its lost writes in PutErrors and the values stay served
// from the LRU tier — memory-only degradation, exactly like a failed
// synchronous Put.
func TestWriteBufferFailedFlushDegrades(t *testing.T) {
	be := newMapBackend()
	be.failPuts = true
	st := store.New(0, be)
	defer st.Close()

	keys := make([]string, 3)
	for i := range keys {
		keys[i] = store.Key("v1", i)
		st.Buffer(store.Entry{Key: keys[i], Val: []byte(`{"v":1}`)})
	}
	st.Flush()
	s := st.Stats()
	if s.PutErrors != int64(len(keys)) {
		t.Fatalf("putErrors=%d, want %d (every buffered write lost)", s.PutErrors, len(keys))
	}
	if !strings.Contains(s.String(), "putErrors=3") {
		t.Fatalf("stats line must surface the loss: %s", s)
	}
	for i, k := range keys {
		if _, ok := st.Get(k); !ok {
			t.Fatalf("key %d lost from the LRU tier after failed flush", i)
		}
	}
	if be.Len() != 0 {
		t.Fatalf("failing backend stored %d entries", be.Len())
	}
}

// TestWriteBufferMemoryOnlyStore pins that a backend-less store needs no
// flush: buffered writes land in the LRU and nothing is queued.
func TestWriteBufferMemoryOnlyStore(t *testing.T) {
	st := store.NewMemory(8)
	defer st.Close()
	k := store.Key("v1", "mem")
	st.Buffer(store.Entry{Key: k, Val: []byte(`{"v":1}`)})
	st.Flush()
	if v, ok := st.Get(k); !ok || string(v) != `{"v":1}` {
		t.Fatalf("memory-only buffered put unreadable: %q ok=%v", v, ok)
	}
	if got := st.Len(); got != 1 {
		t.Fatalf("memory-only Len = %d, want 1", got)
	}
	// Nil-store discipline.
	var none *store.Store
	none.Buffer(store.Entry{Key: k})
	none.Flush()
}

// TestPutBatchIsSynchronousAndChunked pins the other write path: PutBatch
// hands exactly its own entries to the backend before it returns — in
// 512-entry batches, and whatever Buffer has queued meanwhile — and Close
// flushes what is still buffered.
func TestPutBatchIsSynchronousAndChunked(t *testing.T) {
	be := newMapBackend()
	st := store.New(0, be)

	buffered := make([]store.Entry, 3)
	for i := range buffered {
		buffered[i] = store.Entry{Key: store.Key("buffered", i), Val: []byte(`{"b":1}`)}
	}
	st.Buffer(buffered...)
	direct := make([]store.Entry, 512+2)
	for i := range direct {
		direct[i] = store.Entry{Key: store.Key("direct", i), Val: []byte(`{"d":1}`)}
	}
	st.PutBatch(direct)
	if got := fmt.Sprint(be.putBatches); got != "[512 2]" {
		t.Fatalf("PutBatch issued batches %v, want [512 2]", be.putBatches)
	}
	if be.Len() != len(direct) {
		t.Fatalf("backend holds %d entries after PutBatch, want exactly its %d", be.Len(), len(direct))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if be.Len() != len(direct)+len(buffered) {
		t.Fatalf("Close left %d buffered writes unflushed", len(direct)+len(buffered)-be.Len())
	}
}

// slowPuts widens the window in which another goroutine's batch is in
// flight.
type slowPuts struct{ *mapBackend }

func (b slowPuts) PutBatch(entries []store.Entry) (added, lost int, err error) {
	time.Sleep(time.Millisecond)
	return b.mapBackend.PutBatch(entries)
}

// TestWriteBufferConcurrentBufferAndFlush drives Buffer and Flush from
// many goroutines at once: every entry lands exactly once, no batch
// exceeds 512 entries, and a Flush returns only after everything its
// caller buffered before it reached the backend.
func TestWriteBufferConcurrentBufferAndFlush(t *testing.T) {
	be := newMapBackend()
	st := store.New(0, slowPuts{be})
	const writers, perWriter = 8, 300
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := func(i int) string { return store.Key("concurrent", w*perWriter+i) }
			for i := 0; i < perWriter; i++ {
				st.Buffer(store.Entry{Key: key(i), Val: []byte(`{"v":1}`)})
				if i%50 != 49 {
					continue
				}
				st.Flush()
				for j := 0; j <= i; j++ {
					if !be.has(key(j)) {
						t.Errorf("writer %d: Flush returned before its entry %d reached the backend", w, j)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range be.putBatches {
		if n > 512 {
			t.Fatalf("a batch of %d entries exceeds 512", n)
		}
		total += n
	}
	if total != writers*perWriter || be.Len() != writers*perWriter {
		t.Fatalf("backend took %d entries in batches, holds %d; want %d each", total, be.Len(), writers*perWriter)
	}
}
