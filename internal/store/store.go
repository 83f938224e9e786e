// Package store is a content-addressed result store for the deterministic
// simulation jobs of internal/runner: pure job values in, their measured
// results out, keyed by a canonical hash of the job plus a code-version
// salt. It is what makes re-runs incremental (a warm cache re-simulates
// nothing), searches memoized (duplicate candidate genomes are free), and
// sweeps shardable across processes (each process primes its slice of the
// key space into its own store; Merge folds the shards back together).
//
// Architecture: a Store is an in-memory LRU tier in front of a Backend.
// The LRU holds decoded values for the hot working set; the Backend is the
// durable tier — the shipped implementation appends NDJSON records to a
// file and keeps only a key→offset index in memory, so a store can hold far
// more results than RAM. Backend is one batch-first interface, implemented
// once each by the file log (NDJSON), the near/far composite (Tiered), the
// fleet router (Router) and the wire client (remote.Client); the Store's
// point operations are helpers over its batches.
//
// Captured execution traces live in the same key space under a reserved
// namespace (TracePrefix + the unit's result key). The Store keeps them out
// of the LRU and out of the result counters: they count in the Blob*
// fields of Stats instead.
//
// Failure discipline: a cache can only ever cost a re-computation, never an
// answer. Corrupt or unreadable entries are misses (counted in
// Stats.Corrupt), and write failures degrade the store to memory-only
// (counted in Stats.PutErrors); no cache pathology is ever surfaced as an
// error to the simulation. Staleness is impossible by construction: every
// key is derived from a code-version salt (runner.CacheVersion), so results
// written by an older simulation semantics live under keys a newer binary
// never asks for.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Backend is the durable tier behind a Store. Implementations must be safe
// for concurrent use by multiple goroutines of one process. (Multiple
// processes should not share one file-backed backend; give each shard its
// own directory and fold them together with Merge, or point every process
// at one remote backend, which is built for exactly that.)
//
// Every data operation is a batch: a remote backend answers a whole
// fan-out in one round trip, and a local one pays nothing for the shape.
//
// Write semantics are per-key last-write-wins: PutBatch overwrites any
// previous value, and when several writers race on one key the final state
// is whichever write landed last. That rule is safe here — and only here —
// because keys are content addresses: two correct writers of the same key
// computed the same bytes, so the order of their writes cannot change what
// a reader observes. A backend that sees differing bytes rewrite a key is
// watching a bug (or a missed CacheVersion bump) and should count it as a
// conflict rather than try to arbitrate.
type Backend interface {
	// GetBatch returns the stored values of the keys it finds; absent keys
	// are missing from the map. err reports an infrastructure failure
	// (corrupt entry, unreachable replica); the map still holds every
	// value that was found.
	GetBatch(keys []string) (map[string][]byte, error)
	// HasBatch reports presence without moving values; absent keys are
	// missing from the map. Like GetBatch, the map is valid beside err.
	HasBatch(keys []string) (map[string]bool, error)
	// PutBatch stores every entry and reports how many keys were new
	// (added) and how many entries are known to have landed nowhere
	// (lost). The two are distinct: a successful overwrite is neither.
	PutBatch(entries []Entry) (added, lost int, err error)
	// Delete drops the keys, reporting how many stored copies went.
	// Deleting an absent key is a no-op, so drains are idempotent.
	Delete(keys []string) (deleted int, err error)
	// Keys returns the live key set, sorted, when it is cheap to enumerate
	// without moving values (a local index); nil otherwise.
	Keys() []string
	// Stats reports the backend's size and write-health counters.
	Stats() BackendStats
	// Close releases the backend's resources.
	Close() error
}

// BackendStats is a Backend's own accounting. Len counts result entries
// and Traces trace entries (see TracePrefix); composites that cannot count
// the union of their parts report a lower bound. Superseded counts dead
// duplicate records, Degraded partial write placements (see Stats).
type BackendStats struct {
	Len, Traces          int
	Superseded, Degraded int64
}

// Stats counts a Store's traffic. A hit means a result was served without
// re-execution; every miss corresponds to one execution the caller had to
// perform. Corrupt counts entries that existed but could not be decoded
// (served as misses); PutErrors counts failed durable writes (the value
// stays available in the LRU tier); Superseded counts writes of a key that
// was already stored — dead duplicate log lines found at open, overwrites,
// and Merge sources skipped because the destination already held the
// key. Superseded entries are expected (last-write-wins over content
// addresses), but a growing count is the signal to Compact. Degraded
// counts partial write placements the composite backends would otherwise
// hide — a Tiered far-tier write that failed while the near tier landed, a
// write sub-batch a down Router replica never took — so a fleet run that
// silently wrote nothing remote is visible on the stats line instead of
// succeeding. Read-path failures are not degradation; they already count
// as misses.
type Stats struct {
	Hits, Misses, Puts, Corrupt, PutErrors, Superseded, Degraded int64
	// Trace traffic: traces stored and fetched, and their stored (gzipped)
	// bytes moved in both directions.
	BlobStored, BlobFetched, BlobBytes int64
	// Len is Store.Len, read by the same backend call (one fleet round
	// trip). Replies carry it in their own len/entries field.
	Len int `json:"-"`
}

// String renders the stats on one line (the form the CLIs print to stderr
// and CI greps: a warm run must report misses=0). New fields append at the
// end — CI patterns anchor on the existing prefix.
func (s Stats) String() string {
	return fmt.Sprintf("hits=%d misses=%d stored=%d superseded=%d corrupt=%d putErrors=%d degraded=%d blobStored=%d blobFetched=%d blobBytes=%d",
		s.Hits, s.Misses, s.Puts, s.Superseded, s.Corrupt, s.PutErrors, s.Degraded, s.BlobStored, s.BlobFetched, s.BlobBytes)
}

// Entry is one key/value pair of a batch operation.
type Entry struct {
	Key string
	Val []byte
}

// Store is the two-tier content-addressed result store. Safe for concurrent
// use from a worker pool.
type Store struct {
	mu sync.Mutex
	//repro:guardedby mu
	lru *lruCache
	be  Backend // nil for a memory-only store

	// flushMu serializes flushes: a batch leaves pending only with flushMu
	// held, so once Flush holds it no earlier-buffered entry is still in
	// flight elsewhere.
	flushMu sync.Mutex
	pendMu  sync.Mutex
	//repro:guardedby pendMu
	pending []Entry // buffered durable writes (see Buffer)

	hits, misses, puts, corrupt, putErrors, superseded atomic.Int64
	blobStored, blobFetched, blobBytes                 atomic.Int64
}

// DefaultLRUEntries is the LRU tier's capacity when the caller passes 0.
const DefaultLRUEntries = 1 << 16

// New assembles a store from an LRU capacity (entries; 0 selects
// DefaultLRUEntries) and an optional backend (nil for memory-only).
func New(lruEntries int, be Backend) *Store {
	if lruEntries <= 0 {
		lruEntries = DefaultLRUEntries
	}
	return &Store{lru: newLRU(lruEntries), be: be}
}

// Open opens (creating if necessary) the NDJSON-backed store in dir.
func Open(dir string, lruEntries int) (*Store, error) {
	be, err := OpenNDJSON(dir)
	if err != nil {
		return nil, err
	}
	return New(lruEntries, be), nil
}

// NewMemory returns a backend-less store: pure in-process memoization,
// bounded by the LRU capacity.
func NewMemory(lruEntries int) *Store { return New(lruEntries, nil) }

// Get returns the value stored under key. Any failure to produce a decoded
// value — absent key, corrupt entry, unreadable backend — is a miss. Trace
// keys bypass the LRU and count as trace fetches, not hits or misses.
func (s *Store) Get(key string) ([]byte, bool) {
	if s == nil || key == "" {
		return nil, false
	}
	if IsTraceKey(key) {
		v, ok := s.fetch(key)
		if ok {
			s.blobFetched.Add(1)
			s.blobBytes.Add(int64(len(v)))
		}
		return v, ok
	}
	s.mu.Lock()
	v, ok := s.lru.get(key)
	s.mu.Unlock()
	if !ok {
		if v, ok = s.fetch(key); ok {
			s.mu.Lock()
			s.lru.put(key, v)
			s.mu.Unlock()
		}
	}
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return v, ok
}

// fetch reads one key from the backend, counting a failed read as corrupt.
func (s *Store) fetch(key string) ([]byte, bool) {
	if s.be == nil {
		return nil, false
	}
	m, err := s.be.GetBatch([]string{key})
	if err != nil {
		s.corrupt.Add(1)
	}
	v, ok := m[key]
	return v, ok
}

// Peek returns the values stored under keys without touching the hit/miss
// books or the LRU — for infrastructure reads (the remote server's
// overwrite conflict check, the migrator) that would otherwise masquerade
// as cache traffic in Stats. Backend read failures simply read as absent.
func (s *Store) Peek(keys []string) map[string][]byte {
	out := make(map[string][]byte, len(keys))
	if s == nil {
		return out
	}
	missing := s.resident(keys, func(k string, v []byte) { out[k] = v })
	if s.be != nil && len(missing) > 0 {
		m, _ := s.be.GetBatch(missing) //repro:degrade a failed infrastructure read is an absent key, and must not skew Stats
		for k, v := range m {
			out[k] = v
		}
	}
	return out
}

// resident reports every non-empty result key the LRU holds to found and
// returns the rest (trace keys included: they are never resident).
func (s *Store) resident(keys []string, found func(k string, v []byte)) (missing []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, k := range keys {
		if k == "" {
			continue
		}
		if v, ok := s.lru.get(k); ok {
			found(k, v)
		} else {
			missing = append(missing, k)
		}
	}
	return missing
}

// Has reports whether key is present in either tier, without counting a hit
// or a miss.
func (s *Store) Has(key string) bool { return s.Present([]string{key})[key] }

// batchChunk bounds the number of keys per backend batch so request bodies
// stay small however large the fan-out is.
const batchChunk = 512

// chunks calls fn on successive slices of at most batchChunk items,
// stopping at the first false.
func chunks[T any](items []T, fn func(chunk []T) bool) {
	for len(items) > 0 {
		n := min(len(items), batchChunk)
		if !fn(items[:n]) {
			return
		}
		items = items[n:]
	}
}

// Prefetch warms the LRU tier with the given keys in as few backend round
// trips as the chunking allows: a whole sweep's lookups become one mget
// against a remote store instead of one request per job. Keys already
// resident, keys absent from the backend, and batch failures all degrade
// silently — a prefetch can only save round trips, never change a result —
// and nothing is counted as a hit or miss here; the per-key Gets that
// follow do the counting.
func (s *Store) Prefetch(keys []string) {
	if s == nil || s.be == nil {
		return
	}
	missing := s.resident(keys, func(string, []byte) {})
	chunks(missing, func(chunk []string) bool {
		vals, err := s.be.GetBatch(chunk)
		s.mu.Lock()
		for _, k := range chunk { // request order: LRU recency stays deterministic
			if v, ok := vals[k]; ok && !IsTraceKey(k) {
				s.lru.put(k, v)
			}
		}
		s.mu.Unlock()
		return err == nil // per-key Gets will retry (and count) each failure
	})
}

// Present returns the set of the given keys known present, answered from
// the LRU tier plus batched backend probes — no values move and nothing
// is counted as a hit or miss. Prime passes use it to decide what a whole
// fan-out still needs to execute in one round trip. A batch failure leaves
// the remaining keys out of the set, which reads as absent — re-executing
// a present unit is safe, its identical bytes deduplicate.
func (s *Store) Present(keys []string) map[string]bool {
	present := make(map[string]bool, len(keys))
	if s == nil {
		return present
	}
	missing := s.resident(keys, func(k string, _ []byte) { present[k] = true })
	if s.be == nil {
		return present
	}
	chunks(missing, func(chunk []string) bool {
		m, err := s.be.HasBatch(chunk)
		for k, ok := range m {
			if ok {
				present[k] = true
			}
		}
		return err == nil
	})
	return present
}

// Put stores val under key in both tiers. Durable-write failures are
// counted and otherwise ignored: the store degrades to memory-only rather
// than failing the computation that produced the value.
func (s *Store) Put(key string, val []byte) {
	if key != "" {
		s.PutBatch([]Entry{{Key: key, Val: val}})
	}
}

// PutBatch is Put for many entries: they reach the backend, in
// batchChunk-sized batches, before it returns (entries queued by Buffer
// are left to their flush). Results become LRU-resident and count as puts
// at once; traces count as stored once their batch landed whole.
func (s *Store) PutBatch(entries []Entry) {
	if s == nil {
		return
	}
	s.admit(entries)
	s.write(entries)
}

// Buffer is PutBatch with the backend write deferred, the write-side
// mirror of Prefetch: results are LRU-resident and counted at once, and
// the entries queue until batchChunk of them are pending or Flush or Close
// runs — so against a remote backend a fan-out costs one mput per
// batchChunk entries, not one per unit. A failed write degrades like a
// failed Put: counted in Stats.PutErrors, the values still served from
// the LRU tier.
func (s *Store) Buffer(entries ...Entry) {
	if s == nil || len(entries) == 0 {
		return
	}
	s.admit(entries)
	if s.be == nil {
		return
	}
	s.pendMu.Lock()
	s.pending = append(s.pending, entries...)
	full := len(s.pending) >= batchChunk
	s.pendMu.Unlock()
	if full {
		s.Flush()
	}
}

// Flush returns once every entry buffered before the call has been handed
// to the backend — the barrier the cached engine runs at the end of every
// fan-out, so its writes are durable and visible to other processes before
// the engine returns. Failures are counted, not returned (see Buffer).
func (s *Store) Flush() {
	if s == nil || s.be == nil {
		return
	}
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	s.pendMu.Lock()
	pending := s.pending
	s.pending = nil
	s.pendMu.Unlock()
	s.write(pending)
}

// admit makes every result entry LRU-resident and counts it as a put;
// trace entries are neither (see TracePrefix).
func (s *Store) admit(entries []Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range entries {
		if !IsTraceKey(e.Key) {
			s.lru.put(e.Key, e.Val)
			s.puts.Add(1)
		}
	}
}

// write pushes entries to the backend in batchChunk-sized batches. Each
// entry a batch lost counts one PutError (composite backends report
// placement exactly — an entry a Tiered near tier absorbed is durable, not
// a put error); a batch that landed whole counts its traces as stored.
func (s *Store) write(entries []Entry) {
	if s.be == nil {
		return
	}
	chunks(entries, func(chunk []Entry) bool {
		if _, lost, _ := s.be.PutBatch(chunk); lost > 0 { //repro:degrade counted: every entry that landed nowhere becomes a PutError
			s.putErrors.Add(int64(lost))
			return true
		}
		for _, e := range chunk {
			if IsTraceKey(e.Key) {
				s.blobStored.Add(1)
				s.blobBytes.Add(int64(len(e.Val)))
			}
		}
		return true
	})
}

// Len returns the number of durable result entries (LRU-only for memory
// stores). Traces are not results and are counted by TraceLen.
func (s *Store) Len() int { return s.Stats().Len }

// Keys returns the backend's live key set (traces included) when it is
// cheap to enumerate, nil otherwise. The migrator uses it to find a
// draining replica's no-longer-owned slice without reading values.
func (s *Store) Keys() []string {
	if s == nil || s.be == nil {
		return nil
	}
	return s.be.Keys()
}

// Delete drops keys from both tiers, reporting how many durable copies
// went.
func (s *Store) Delete(keys ...string) (int, error) {
	if s == nil {
		return 0, nil
	}
	s.mu.Lock()
	for _, k := range keys {
		s.lru.delete(k)
	}
	s.mu.Unlock()
	if s.be == nil {
		return 0, nil
	}
	return s.be.Delete(keys)
}

// Stats returns a snapshot of the store's traffic counters.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	st := Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Puts:        s.puts.Load(),
		Corrupt:     s.corrupt.Load(),
		PutErrors:   s.putErrors.Load(),
		Superseded:  s.superseded.Load(),
		BlobStored:  s.blobStored.Load(),
		BlobFetched: s.blobFetched.Load(),
		BlobBytes:   s.blobBytes.Load(),
	}
	if s.be != nil {
		bs := s.be.Stats()
		st.Superseded += bs.Superseded
		st.Degraded += bs.Degraded
		st.Len = bs.Len
	} else {
		s.mu.Lock()
		st.Len = s.lru.len()
		s.mu.Unlock()
	}
	return st
}

// Close flushes the buffered writes and closes the backend, if any.
func (s *Store) Close() error {
	if s == nil || s.be == nil {
		return nil
	}
	s.Flush()
	return s.be.Close()
}

// openMergeSrc opens one merge source directory; a variable so tests can
// inject failing sources (like nowFn for the clock).
var openMergeSrc = func(dir string) (Backend, error) { return OpenNDJSON(dir) }

// Merge folds every entry (traces included) of the NDJSON stores in dirs
// into s (the shard fold: m processes prime disjoint key slices into their
// own directories, then one process merges them and replays the whole
// sweep from cache — or, with a remote backend, pushes a local shard store
// up to the fleet store). Entries travel in sorted-key PutBatch chunks; a
// key the destination already holds is kept as-is and counted as
// superseded — entries are content-addressed, so a duplicate key carries
// an identical value. Returns the number of entries added.
func (s *Store) Merge(dirs ...string) (int, error) {
	if s.be == nil {
		return 0, fmt.Errorf("store: merge needs a durable backend")
	}
	added := 0
	for _, dir := range dirs {
		src, err := openMergeSrc(dir)
		if err != nil {
			return added, fmt.Errorf("store: merge %s: %w", dir, err)
		}
		chunks(src.Keys(), func(chunk []string) bool {
			var vals map[string][]byte
			if vals, err = src.GetBatch(chunk); err != nil {
				return false
			}
			entries := make([]Entry, 0, len(chunk))
			for _, k := range chunk {
				if v, ok := vals[k]; ok {
					entries = append(entries, Entry{Key: k, Val: v})
				}
			}
			n, lost, perr := s.be.PutBatch(entries)
			if err = perr; err != nil {
				return false
			}
			added += n
			s.puts.Add(int64(n))
			s.superseded.Add(int64(len(entries) - n - lost))
			return true
		})
		cerr := src.Close()
		if err != nil {
			return added, fmt.Errorf("store: merge %s: %w", dir, err)
		}
		if cerr != nil {
			return added, fmt.Errorf("store: merge %s: close: %w", dir, cerr)
		}
	}
	return added, nil
}

// Key returns the content address of a cacheable unit: the hex SHA-256 of
// the code-version salt and the canonical JSON encoding of v. Callers pass
// pure value types (structs of strings, ints and slices — never maps or
// pointers to mutable state), whose JSON encoding is deterministic, so the
// same logical job always lands on the same key in every process. An
// unencodable v returns "", which every consumer treats as "uncacheable".
func Key(salt string, v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return ""
	}
	h := sha256.New()
	h.Write([]byte(salt)) //repro:degrade hash.Hash.Write is documented to never error
	h.Write([]byte{0})    //repro:degrade hash.Hash.Write is documented to never error
	h.Write(b)            //repro:degrade hash.Hash.Write is documented to never error
	return hex.EncodeToString(h.Sum(nil))
}

// ParseShard parses the CLI shard notation "i/m" (1-based i, e.g. "2/3")
// into a 0-based shard index and shard count. The whole string must be
// consumed — "1/2x" or "1/2/3" are rejected, not silently truncated, so a
// typoed split fails loudly instead of mispriming the key space.
func ParseShard(s string) (index, count int, err error) {
	a, b, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("store: bad shard %q: want i/m, e.g. 1/3", s)
	}
	i, err1 := strconv.Atoi(a)
	m, err2 := strconv.Atoi(b)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("store: bad shard %q: want i/m, e.g. 1/3", s)
	}
	if m < 1 || i < 1 || i > m {
		return 0, 0, fmt.Errorf("store: bad shard %q: need 1 <= i <= m", s)
	}
	return i - 1, m, nil
}

// GetJSON fetches and decodes the value stored under key. Decode failures
// are corrupt entries: counted, reported as a miss, never an error.
func GetJSON[T any](s *Store, key string) (T, bool) {
	var v T
	b, ok := s.Get(key)
	if !ok {
		return v, false
	}
	if err := json.Unmarshal(b, &v); err != nil {
		s.corrupt.Add(1)
		s.hits.Add(-1) // reclassify: the raw bytes hit, the value did not
		s.misses.Add(1)
		var zero T
		return zero, false
	}
	return v, true
}

// PutJSON encodes v and stores it under key. Unencodable values are
// dropped (the job simply stays uncached).
func PutJSON[T any](s *Store, key string, v T) {
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	s.Put(key, b)
}
