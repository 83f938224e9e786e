package runner

import (
	"encoding/json"

	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/store"
	"repro/internal/trace"
)

// CacheVersion is the code-version salt folded into every store key in the
// repository (jobs, schedule candidates, sweep permutations, experiment
// units). Bump it whenever the simulator's observable outputs change —
// machine stepping, scheduler semantics, cost accounting, the encoding —
// so results written by an older binary become unreachable keys instead of
// stale answers. A cache populated under a different version is simply
// cold, never wrong.
const CacheVersion = "fanl06-sim-v3"

// CachedEngine wraps an Engine with an optional content-addressed result
// store and an optional prime-shard assignment. It is the handle the whole
// stack fans out through:
//
//   - with a nil store it behaves exactly like the bare Engine;
//   - with a store, Run / RunSchedules / CachedMap consult the store before
//     executing and write back after, and because results are folded in
//     submission order the folds see byte-identical values whether each
//     result came from cache or execution, at any worker count; both
//     directions travel batched — reads in one prefetch batch up front,
//     executed results and their traces through Store.Buffer, flushed at
//     the fan-out barrier — so against a remote store a fan-out costs
//     round trips per batch, not per unit;
//   - with a shard assignment (WithShard) the engine becomes a prime pass:
//     statically enumerable fan-outs execute only this shard's missing keys
//     and skip their folds entirely, so m processes can split one sweep's
//     key space and later fold their stores together with store.Merge.
//
// Adaptive fan-outs (RunSchedules, whose batches are generated round by
// round from prior results) ignore the shard partition: they execute
// whatever they miss and cache everything, since their control flow cannot
// proceed without the values. Deterministic search makes every shard cache
// identical entries for them, so merging stays consistent.
type CachedEngine struct {
	*Engine
	cache   *store.Store
	shard   *store.Ring // nil = normal mode; non-nil = prime-only pass owning one member
	self    int         // this pass's member index in shard
	capture bool        // persist executed step logs into the store's trace namespace
}

// NewCached wraps an engine with a result store; st may be nil for a plain
// uncached engine behind the same interface.
func NewCached(e *Engine, st *store.Store) *CachedEngine {
	return &CachedEngine{Engine: e, cache: st}
}

// WithShard returns a copy of the engine acting as a prime pass for shard i
// of m (0-based): the engine owns member i of the uniform m-member ring, so
// every process derives the identical partition from m alone. It requires a
// store — a shard pass without somewhere to write results would do nothing
// — and returns the engine unchanged when m <= 0, i is out of range or no
// store is attached.
func (c *CachedEngine) WithShard(i, m int) *CachedEngine {
	if m <= 0 || i < 0 || i >= m || c.cache == nil {
		return c
	}
	cp := *c
	cp.shard, cp.self = store.UniformRing(m), i
	return &cp
}

// WithCapture returns a copy of the engine that persists every executed
// unit's step log — the full model.Execution plus the machine's per-step
// changed flags, encoded by internal/trace — into the store as the trace
// of the unit's own cache key. Cached hits capture nothing (their trace
// was captured when they were executed, or never will be); encoding runs
// on the worker after its simulation completes, never inside the stepping
// hot path. Without a store capture has nothing to write to, so the engine
// is returned unchanged.
func (c *CachedEngine) WithCapture(on bool) *CachedEngine {
	if c.cache == nil || c.capture == on {
		return c
	}
	cp := *c
	cp.capture = on
	return &cp
}

// Capturing reports whether executed step logs are being persisted.
func (c *CachedEngine) Capturing() bool { return c != nil && c.capture }

// unitEntries returns the store entries one successfully executed unit
// writes under key k: its trace first when capture is on (encoded on the
// executing worker, strictly after the simulation finished — the hot loop
// never sees it), then its JSON result payload. A keyless unit writes
// nothing. Failures follow the store discipline: an unencodable trace or
// payload is dropped, costing a future replay or run one re-simulation,
// never this run an error.
func (c *CachedEngine) unitEntries(k string, payload any, rec trace.Record) []store.Entry {
	if k == "" {
		return nil
	}
	var entries []store.Entry
	if c.capture && len(rec.Exec) > 0 {
		if blob, err := trace.EncodeRecord(rec); err == nil {
			entries = append(entries, store.TraceEntry(k, blob))
		}
	}
	return appendJSON(entries, k, payload)
}

// appendJSON appends v, JSON-encoded, as the entry under k; an unencodable
// v is dropped (the unit simply stays uncached).
func appendJSON(entries []store.Entry, k string, v any) []store.Entry {
	if b, err := json.Marshal(v); err == nil {
		entries = append(entries, store.Entry{Key: k, Val: b})
	}
	return entries
}

// executeJob runs one job and returns the entries it writes under k.
func (c *CachedEngine) executeJob(k string, j Job) (Result, []store.Entry) {
	r, exec, changed := ExecuteTraced(j)
	if r.Err != nil {
		return r, nil
	}
	return r, c.unitEntries(k, jobPayload{Report: r.Report},
		trace.Record{Algo: j.Algo, N: j.N, Horizon: j.Horizon, Exec: exec, Changed: changed})
}

// executeSchedule runs one candidate and returns the entries it writes
// under k. Discarded candidates (truncated, stalled) capture too: their
// executions replay like any other, and a search post-mortem needs exactly
// the candidates that went wrong.
func (c *CachedEngine) executeSchedule(k string, j ScheduleJob) (ScheduleResult, []store.Entry) {
	r, exec, changed := ExecuteScheduleTraced(j)
	if r.Err != nil {
		return r, nil
	}
	return r, c.unitEntries(k, schedulePayload{Report: r.Report, Canonical: r.Canonical, Decisions: r.Decisions},
		trace.Record{Algo: j.Algo, N: j.N, Horizon: j.Horizon, Exec: exec, Changed: changed})
}

// Priming reports whether the engine is a prime-only shard pass, in which
// statically enumerable fan-outs skip folds and validation layered on fold
// results (e.g. sweep injectivity checks) must be skipped by the caller.
func (c *CachedEngine) Priming() bool { return c != nil && c.shard != nil }

// Owns reports whether this engine's shard assignment owns the key: always
// true in normal mode. Adaptive drivers (a search whose rounds depend on
// prior results) use it to shard at a coarser granule — skip the whole
// search cell when priming and another shard owns its key — since their
// inner fan-outs cannot be partitioned.
func (c *CachedEngine) Owns(key string) bool {
	return c.shard == nil || c.shard.Owner(key) == c.self
}

// probe batch-resolves which of a prime pass's in-shard keys are already
// stored — presence only, no values move (a prime pass never reads the
// results it skips). A stale "absent" only costs a re-execution whose
// identical bytes deduplicate.
func (c *CachedEngine) probe(keys []string) map[string]bool {
	ask := make([]string, 0, len(keys))
	for _, k := range keys {
		if k != "" && c.Owns(k) {
			ask = append(ask, k)
		}
	}
	return c.cache.Present(ask)
}

// cachedFanOut is the one cached fan-out: key every unit once, resolve the
// lookups in one batch (Store.Prefetch — purely an optimization; a prime
// pass probes presence instead), get-or-execute each unit on the worker
// pool, buffer what executed units write, fold in submission order and
// flush at the barrier. key(i) is unit i's content address ("" =
// uncacheable: always executed in normal mode, never by a prime pass); hit
// decodes a stored value; exec runs unit i and returns its value, the
// entries it writes under k (none on failure) and an error that aborts the
// fan-out. Without a store this is the bare MapOrdered. When shardable and
// the engine is a prime pass, only this shard's missing keys execute and
// the fold is skipped. Buffered results are resident at once, so a unit
// repeated within one fan-out hits.
func cachedFanOut[T any](c *CachedEngine, n int, shardable bool, key func(i int) string,
	hit func(i int, k string) (T, bool), exec func(i int, k string) (T, []store.Entry, error),
	fold func(i int, v T) error) error {
	if c.cache == nil {
		return MapOrdered(c.Engine, n, func(i int) (T, error) {
			v, _, err := exec(i, "")
			return v, err
		}, fold)
	}
	defer c.cache.Flush()
	keys := make([]string, n)
	for i := range keys {
		keys[i] = key(i)
	}
	if shardable && c.Priming() {
		present := c.probe(keys)
		return c.Each(n, func(i int) error {
			k := keys[i]
			if k == "" || !c.Owns(k) || present[k] {
				return nil
			}
			_, entries, err := exec(i, k)
			c.cache.Buffer(entries...)
			return err
		})
	}
	c.cache.Prefetch(keys)
	return MapOrdered(c.Engine, n, func(i int) (T, error) {
		k := keys[i]
		if k != "" {
			if v, ok := hit(i, k); ok {
				return v, nil
			}
		}
		v, entries, err := exec(i, k)
		c.cache.Buffer(entries...)
		return v, err
	}, fold)
}

// CachedMap is MapOrdered with a content-addressed memo in front: fn(i) is
// executed only when key(i) misses the store, and its JSON-round-tripped
// value feeds the fold otherwise. T must therefore be a pure value type
// whose JSON encoding round-trips exactly (ints, strings, bools, float64s,
// slices of those) — which also makes cached and executed folds
// byte-identical. A key of "" marks the unit uncacheable: it is always
// executed in normal mode and never executed by a prime pass (a keyless
// unit cannot be assigned to a shard).
//
// In prime mode the fold is never called: the pass exists to fill the
// store, and only this shard's missing keys are executed. Errors from fn
// still abort — a prime pass surfaces real simulation failures.
func CachedMap[T any](ce *CachedEngine, n int, key func(i int) string, fn func(i int) (T, error), fold func(i int, v T) error) error {
	return cachedFanOut(ce, n, true, key,
		func(_ int, k string) (T, bool) { return store.GetJSON[T](ce.cache, k) },
		func(i int, k string) (T, []store.Entry, error) {
			v, err := fn(i)
			if err != nil || k == "" {
				return v, nil, err
			}
			return v, appendJSON(nil, k, v), nil
		}, fold)
}

// RunOne executes a single job through the store: a cache hit costs no
// simulation, a miss executes on the calling goroutine (no worker pool —
// request-scoped callers bring their own concurrency) and writes its
// result and trace straight back in one batch, so the result is durable
// and visible to every other goroutine sharing the store before RunOne
// returns. Safe for concurrent use — the engine's fields are immutable
// after construction and the store is goroutine-safe. Errors are returned,
// never cached, exactly like the batch paths.
func (c *CachedEngine) RunOne(j Job) (cost.Report, error) {
	if c.cache == nil {
		r := Execute(j)
		return r.Report, r.Err
	}
	k := j.CacheKey()
	if p, ok := store.GetJSON[jobPayload](c.cache, k); ok {
		return p.Report, nil
	}
	r, entries := c.executeJob(k, j)
	if r.Err != nil {
		return cost.Report{}, r.Err
	}
	c.cache.PutBatch(entries)
	return r.Report, nil
}

// jobKeyParts is the canonical content of a Job key. Horizon is hashed as
// given (0 and an explicit machine.DefaultHorizon(N) are conservatively
// distinct keys).
type jobKeyParts struct {
	Op      string       `json:"op"`
	Algo    string       `json:"algo"`
	N       int          `json:"n"`
	Sched   machine.Spec `json:"sched"`
	Horizon int          `json:"horizon"`
	Seed    int64        `json:"seed"`
}

// CacheKey returns the job's content address under the current
// CacheVersion, with the scheduler spec canonicalized.
func (j Job) CacheKey() string {
	return store.Key(CacheVersion, jobKeyParts{
		Op: "job", Algo: j.Algo, N: j.N, Sched: j.Sched.Canon(), Horizon: j.Horizon, Seed: j.Seed,
	})
}

// jobPayload is the cached portion of a successful Result. Errors are never
// cached: a failing job re-executes (and re-fails) on every run.
type jobPayload struct {
	Report cost.Report `json:"report"`
}

// Run is Engine.Run behind the store: each job's Report is served from
// cache when present and written back after execution otherwise. Folds see
// exactly the Results a bare engine would deliver, failed jobs included
// (Result.Err in-band). In prime mode only this shard's missing keys
// execute, the fold is skipped, and a failed job aborts the pass.
func (c *CachedEngine) Run(jobs []Job, fold func(Result) error) error {
	return cachedFanOut(c, len(jobs), true,
		func(i int) string { return jobs[i].CacheKey() },
		func(i int, k string) (Result, bool) {
			p, ok := store.GetJSON[jobPayload](c.cache, k)
			return Result{Index: i, Job: jobs[i], Report: p.Report}, ok
		},
		func(i int, k string) (Result, []store.Entry, error) {
			r, entries := c.executeJob(k, jobs[i])
			r.Index = i
			if c.Priming() {
				return r, entries, r.Err
			}
			return r, entries, nil
		},
		func(_ int, r Result) error { return fold(r) })
}

// scheduleKeyParts is the canonical content of a ScheduleJob key.
// KeepDecisions is part of the key because it bounds the cached genome.
type scheduleKeyParts struct {
	Op      string       `json:"op"`
	Algo    string       `json:"algo"`
	N       int          `json:"n"`
	Sched   machine.Spec `json:"sched"`
	Horizon int          `json:"horizon"`
	Keep    int          `json:"keep"`
}

// CacheKey returns the candidate's content address under the current
// CacheVersion, with the scheduler spec canonicalized — so the same genome
// re-proposed in a later search round (or another search sharing the store)
// is a hit, not a simulation.
func (j ScheduleJob) CacheKey() string {
	return store.Key(CacheVersion, scheduleKeyParts{
		Op: "sched", Algo: j.Algo, N: j.N, Sched: j.Sched.Canon(), Horizon: j.Horizon, Keep: j.KeepDecisions,
	})
}

// schedulePayload is the cached portion of a ScheduleResult whose Err is
// nil — including discarded candidates (truncated, stalled, or rejected by
// the cost model), which cache as non-canonical zero-report entries so a
// warm search re-discards them without re-simulating.
type schedulePayload struct {
	Report    cost.Report `json:"report"`
	Canonical bool        `json:"canonical"`
	Decisions []int       `json:"decisions"`
}

// RunSchedules is Engine.RunSchedules behind the store. It never shards:
// schedule batches are generated adaptively (round r's candidates depend on
// round r-1's fold), so a prime pass executes its misses like a normal run
// — every shard caches identical entries for the same search, and the folds
// run because the search itself needs them.
func (c *CachedEngine) RunSchedules(jobs []ScheduleJob, fold func(ScheduleResult) error) error {
	return cachedFanOut(c, len(jobs), false,
		func(i int) string { return jobs[i].CacheKey() },
		func(i int, k string) (ScheduleResult, bool) {
			p, ok := store.GetJSON[schedulePayload](c.cache, k)
			return ScheduleResult{
				Index: i, Job: jobs[i],
				Report: p.Report, Canonical: p.Canonical, Decisions: p.Decisions,
			}, ok
		},
		func(i int, k string) (ScheduleResult, []store.Entry, error) {
			r, entries := c.executeSchedule(k, jobs[i])
			r.Index = i
			return r, entries, nil
		},
		func(_ int, r ScheduleResult) error { return fold(r) })
}
