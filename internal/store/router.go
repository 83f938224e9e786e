package store

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Router spreads one content-addressed key space across several far
// backends — typically N independent stored instances — so the fleet's
// shared cache scales horizontally instead of funnelling every worker
// through one server. Placement is the Ring's: each key is owned by the
// replica weighted rendezvous hashing assigns it, so every process holding
// the same ring routes every key identically and a replica holds a
// (weight-proportional) slice of the key space. This is what `-store
// URL1,URL2,…` mounts in the CLIs, under whatever ring the fleet serves.
//
// Every operation is batched: GetBatch / PutBatch / HasBatch split the
// request into per-replica sub-batches, issue them concurrently, and merge
// the replies — a whole fan-out still costs one round trip per *replica*,
// not per key.
//
// Reads fail over along the rendezvous order: a key its owner cannot serve
// (down replica, or a slice still draining to a new owner after a resize)
// is retried on the runner-up replica — which, for a freshly moved key, is
// exactly its previous owner — before degrading to a miss. Writes go to
// the owner alone; a down owner's writes are counted failures (Degraded),
// the PR-3 rule that a cache pathology can cost re-executions, never an
// answer. Degraded operations are counted per replica (Failures) so a sick
// instance is visible in the CLIs' diagnostics instead of hiding behind a
// silently colder cache.
type Router struct {
	ring       *Ring
	replicas   []Backend
	failures   []atomic.Int64 // per-replica degraded operations (point or batch, read or write)
	lostWrites atomic.Int64   // write entries that failed to land (see Degraded)
}

// readRanks bounds a read's failover walk down the rendezvous order:
// owner plus runner-up. Rank 2+ replicas can only hold a key after two
// consecutive un-drained resizes, which a second rebalance pass cleans
// up; probing them on every miss would tax true misses instead.
const readRanks = 2

// NewRouter routes the key space across the given backends under a
// uniform anonymous ring (epoch 0, members "s1"…"sm" — the same logical
// ring shard passes use). The replica order is part of the partition:
// every process of a fleet must list the same backends in the same order,
// or they will disagree about which replica owns a key (safe — content
// addressing makes double writes idempotent — but it wastes space and
// round trips). Fleets that can change shape mount NewRingRouter with an
// authoritative named ring instead. At least one backend is required; a
// single backend routes everything to it.
func NewRouter(replicas ...Backend) *Router {
	if len(replicas) == 0 {
		panic("store: NewRouter needs at least one backend")
	}
	return NewRingRouter(UniformRing(len(replicas)), replicas...)
}

// NewRingRouter routes the key space across the backends by the given
// ring: replicas[i] serves ring.Members[i]. The ring decides placement;
// the backend list just supplies the transport.
func NewRingRouter(ring *Ring, replicas ...Backend) *Router {
	if ring == nil || len(ring.Members) != len(replicas) {
		panic("store: NewRingRouter needs one backend per ring member")
	}
	return &Router{ring: ring, replicas: replicas, failures: make([]atomic.Int64, len(replicas))}
}

// Ring returns the placement ring the router routes by.
func (r *Router) Ring() *Ring { return r.ring }

// Failures returns a snapshot of per-replica degraded operations: point or
// batch calls that failed and fell back to miss/memory-only. A nonzero
// entry names the sick instance.
func (r *Router) Failures() []int64 {
	out := make([]int64, len(r.failures))
	for i := range r.failures {
		out[i] = r.failures[i].Load()
	}
	return out
}

// group splits keys into per-replica sub-slices by the given rendezvous
// rank (0 = owner, 1 = runner-up), preserving order.
func (r *Router) group(keys []string, rank int) [][]string {
	groups := make([][]string, len(r.replicas))
	if rank == 0 {
		for _, k := range keys {
			i := r.ring.Owner(k)
			groups[i] = append(groups[i], k)
		}
		return groups
	}
	for _, k := range keys {
		i := r.ring.Rank(k)[rank]
		groups[i] = append(groups[i], k)
	}
	return groups
}

// readRankLimit returns how many rendezvous ranks reads may probe.
func (r *Router) readRankLimit() int {
	if len(r.replicas) < readRanks {
		return len(r.replicas)
	}
	return readRanks
}

// readWaves runs a read over the rendezvous order: each wave splits the
// still-unresolved keys into per-replica sub-batches by the given rank
// (owner first, then runner-up), issues them concurrently, and lets fetch
// resolve what it can. A failed sub-batch is counted against its replica
// and its keys retried in the next wave, so a down or still-draining owner
// costs one extra round trip per replica instead of the keys' hits. The
// first failure is returned when a key some failed sub-batch carried was
// never resolved.
func (r *Router) readWaves(keys []string, fetch func(be Backend, g []string) (resolved []string, err error)) error {
	var (
		mu       sync.Mutex
		firstErr error
		done     = make(map[string]bool, len(keys))
		failed   = make(map[string]bool)
	)
	remaining := keys
	limit := r.readRankLimit()
	for rank := 0; rank < limit && len(remaining) > 0; rank++ {
		groups := r.group(remaining, rank)
		fanOut(nonEmpty(groups), func(i int) {
			resolved, err := fetch(r.replicas[i], groups[i])
			mu.Lock()
			defer mu.Unlock()
			for _, k := range resolved {
				done[k] = true
			}
			if err == nil {
				return
			}
			r.failures[i].Add(1)
			if firstErr == nil {
				firstErr = err
			}
			for _, k := range groups[i] {
				failed[k] = true
			}
		})
		var next []string
		for _, k := range remaining {
			if !done[k] {
				next = append(next, k)
			}
		}
		remaining = next
	}
	for _, k := range remaining {
		if failed[k] {
			return firstErr
		}
	}
	return nil
}

// nonEmpty returns the indexes of the non-empty per-replica groups.
func nonEmpty[T any](groups [][]T) []int {
	var idx []int
	for i, g := range groups {
		if len(g) > 0 {
			idx = append(idx, i)
		}
	}
	return idx
}

// fanOut runs fn(i) for every i in idx, concurrently when there are
// several. A single call — every one-key operation — stays on the
// caller's goroutine, sparing the request path a spawn and the stack
// growth of a fresh goroutine entering the HTTP client.
func fanOut(idx []int, fn func(i int)) {
	if len(idx) == 1 {
		fn(idx[0])
		return
	}
	var wg sync.WaitGroup
	for _, i := range idx {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}

// GetBatch implements Backend with rendezvous failover (see readWaves):
// keys unresolved after both waves are missing, never a failed batch.
func (r *Router) GetBatch(keys []string) (map[string][]byte, error) {
	var mu sync.Mutex
	out := make(map[string][]byte, len(keys))
	err := r.readWaves(keys, func(be Backend, g []string) ([]string, error) {
		m, err := be.GetBatch(g)
		mu.Lock()
		defer mu.Unlock()
		var resolved []string
		for _, k := range g {
			if v, ok := m[k]; ok {
				out[k] = v
				resolved = append(resolved, k)
			}
		}
		return resolved, err
	})
	return out, err
}

// HasBatch implements Backend with the same failover as GetBatch: a key
// absent everywhere reads as absent, which only costs re-executions whose
// identical bytes deduplicate.
func (r *Router) HasBatch(keys []string) (map[string]bool, error) {
	var mu sync.Mutex
	out := make(map[string]bool, len(keys))
	err := r.readWaves(keys, func(be Backend, g []string) ([]string, error) {
		m, err := be.HasBatch(g)
		mu.Lock()
		defer mu.Unlock()
		var resolved []string
		for _, k := range g {
			if m[k] {
				out[k] = true
				resolved = append(resolved, k)
			}
		}
		return resolved, err
	})
	return out, err
}

// PutBatch implements Backend: per-replica sub-batches to each key's owner,
// issued concurrently. added sums the replicas that answered; lost is exact
// per replica — a down instance loses its sub-batch's entries, the others
// lose nothing, and successful overwrites on healthy replicas are never
// miscounted as lost. A failed sub-batch is counted against its replica
// and reported in the joined error, so a push-merge surfaces partial
// placement instead of claiming success.
func (r *Router) PutBatch(entries []Entry) (added, lost int, err error) {
	groups := make([][]Entry, len(r.replicas))
	for _, e := range entries {
		i := r.ring.Owner(e.Key)
		groups[i] = append(groups[i], e)
	}
	var (
		mu   sync.Mutex
		errs []error
	)
	fanOut(nonEmpty(groups), func(i int) {
		n, lostG, err := r.replicas[i].PutBatch(groups[i])
		mu.Lock()
		defer mu.Unlock()
		added += n
		lost += lostG
		if err != nil {
			r.failures[i].Add(1)
			errs = append(errs, fmt.Errorf("store: router replica %d (%s): %w", i, r.ring.Members[i].Name, err))
		}
	})
	r.lostWrites.Add(int64(lost))
	return added, lost, errors.Join(errs...)
}

// Delete implements Backend on every replica: after a resize a key may
// still sit on its previous owner, and a delete must reach every copy.
func (r *Router) Delete(keys []string) (int, error) {
	deleted := 0
	errs := make([]error, len(r.replicas))
	for i, be := range r.replicas {
		n, err := be.Delete(keys)
		deleted += n
		errs[i] = err
	}
	return deleted, errors.Join(errs...)
}

// Keys implements Backend by refusing: a routed fleet is not enumerated
// through the router; each replica drains its own keys (see Ring).
func (r *Router) Keys() []string { return nil }

// Stats implements Backend as the sum over replicas: the partition is
// disjoint by construction (transiently double-counting keys mid-drain),
// and an unreachable replica reads as empty and bounds the total from
// below. Degraded counts the write entries that failed to land on their
// owner replica, plus any nested composite's own count; read-path failures
// are not included — they already read as misses.
func (r *Router) Stats() BackendStats {
	bs := BackendStats{Degraded: r.lostWrites.Load()}
	for _, be := range r.replicas {
		s := be.Stats()
		bs.Len += s.Len
		bs.Traces += s.Traces
		bs.Superseded += s.Superseded
		bs.Degraded += s.Degraded
	}
	return bs
}

// Close implements Backend, closing every replica.
func (r *Router) Close() error {
	errs := make([]error, len(r.replicas))
	for i, be := range r.replicas {
		errs[i] = be.Close()
	}
	return errors.Join(errs...)
}
