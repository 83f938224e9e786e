// Package session is the composable core every experiment-facing binary
// and service is assembled from: one type owning the full lifecycle that
// cmd/experiments, cmd/tournament, cmd/observe, cmd/lowerbound,
// cmd/mutexsim and cmd/experimentd used to hand-build in their main
// functions — mount the result store (local directory, fleet, or tiered;
// see remote.Mount), validate the -merge/-shard/-capture combinations and
// fold -merge shards in, wrap the cached execution engine, apply the shard
// assignment, enable trace capture, start the profiling hooks, and on
// Close flush everything and print the canonical end-of-run stats lines.
//
// The split is engine vs serving: everything below (machine, runner,
// store, remote) stays a library of pure values, and a Session is the one
// stateful object a process holds. A batch CLI opens one Session, runs its
// fan-outs on Session.Engine, and closes it. A long-running service
// (cmd/experimentd) opens one Session at startup and serves request-scoped
// work through Session.RunUnit, which is safe for any number of concurrent
// callers: the store is goroutine-safe, the engine's configuration is
// immutable, and identical in-flight units are coalesced so N simultaneous
// requests for one unit cost exactly one simulation.
package session

import (
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/cost"
	"repro/internal/prof"
	"repro/internal/remote"
	"repro/internal/runner"
	"repro/internal/store"
)

// Config is everything a Session needs, as plain values — a process that
// wants the stack without a flag set (tests, examples, embedded services)
// fills it directly; CLIs bind it with FlagConfig.
type Config struct {
	// Prog prefixes every diagnostic line ("experiments: cache …").
	Prog string
	// CacheDir is the local result-store directory ("" = none).
	CacheDir string
	// StoreURL is the remote store URL list ("" = none); see remote.Mount.
	StoreURL string
	// Shard is the "i/m" prime-shard assignment ("" = normal run).
	Shard string
	// Merge is the comma-separated shard directories to fold in first.
	Merge string
	// Capture persists executed step traces into the store.
	Capture bool
	// Parallel is the engine worker-pool size (0 = GOMAXPROCS).
	Parallel int
	// Prof holds the registered profiling flags (nil = no profiling).
	Prof *prof.Flags
	// Diag receives diagnostics and stats lines (nil = os.Stderr). The
	// data stream is never written here, so stdout stays byte-identical
	// across cold, warm, and sharded runs.
	Diag io.Writer
}

// Session is one mounted instance of the full stack. Open builds it,
// Close tears it down; in between it is safe for concurrent use.
type Session struct {
	cfg            Config
	diag           io.Writer
	st             *store.Store     // nil when no store flags were given
	clients        []*remote.Client // one per fleet replica, ring order
	ring           *store.Ring      // placement ring routed by; nil for local-only and single-replica mounts
	shardI, shardM int              // 0, 0 for a normal run
	eng            *runner.CachedEngine
	stopProf       func()

	mu       sync.Mutex
	inflight map[string]*flight
	closed   bool

	coalesced atomic.Int64
}

// flight is one in-flight unit execution other requests coalesce onto.
type flight struct {
	done   chan struct{}
	report cost.Report
	err    error
}

// Open mounts the stack the config describes: profiling first (so the
// profile covers the mount), then the store tiers with their one canonical
// validation path, then the cached engine with shard and capture applied.
// Every error path tears down what was already built.
func Open(cfg Config) (*Session, error) {
	diag := cfg.Diag
	if diag == nil {
		diag = os.Stderr
	}
	stopProf := func() {}
	if cfg.Prof != nil {
		var err error
		if stopProf, err = cfg.Prof.Start(diag); err != nil {
			return nil, err
		}
	}
	st, clients, ring, err := remote.Mount(cfg.CacheDir, cfg.StoreURL)
	if err != nil {
		stopProf()
		return nil, err
	}
	s := &Session{
		cfg:      cfg,
		diag:     diag,
		st:       st,
		clients:  clients,
		ring:     ring,
		stopProf: stopProf,
		inflight: make(map[string]*flight),
	}
	if err := s.applyFlags(); err != nil {
		st.Close() //repro:degrade error-path teardown; the flag error is the one to surface
		stopProf()
		return nil, err
	}
	s.eng = runner.NewCached(runner.New(cfg.Parallel), st).
		WithShard(s.shardI, s.shardM).
		WithCapture(cfg.Capture)
	return s, nil
}

// applyFlags validates the -merge/-shard/-capture combinations against
// the mounted store, folds the -merge shard directories in (mutually
// exclusive with -shard: a merge replays the full run) and resolves the
// -shard assignment.
func (s *Session) applyFlags() error {
	if s.cfg.Merge != "" {
		if s.st == nil {
			return fmt.Errorf("-merge requires -cache or -store")
		}
		if s.cfg.Shard != "" {
			return fmt.Errorf("-merge and -shard are mutually exclusive (merge replays the full run)")
		}
		var dirs []string
		for _, d := range strings.Split(s.cfg.Merge, ",") {
			if d = strings.TrimSpace(d); d != "" {
				dirs = append(dirs, d)
			}
		}
		added, err := s.st.Merge(dirs...)
		if err != nil {
			return err
		}
		fmt.Fprintf(s.diag, "%s: merged %d entries from %d store(s)\n", s.cfg.Prog, added, len(dirs)) //repro:degrade diagnostic line on stderr
	}
	if s.cfg.Shard != "" {
		if s.st == nil {
			return fmt.Errorf("-shard requires -cache or -store")
		}
		var err error
		if s.shardI, s.shardM, err = store.ParseShard(s.cfg.Shard); err != nil {
			return err
		}
	}
	if s.cfg.Capture && s.st == nil {
		return fmt.Errorf("-capture requires -cache or -store")
	}
	return nil
}

// Engine returns the session's cached execution engine — the handle batch
// drivers fan out through. Its configuration (store, shard, capture) is
// immutable; derived copies (WithCapture, WithShard) share the store.
func (s *Session) Engine() *runner.CachedEngine { return s.eng }

// Store returns the mounted result store (nil when no store flags were
// given).
func (s *Session) Store() *store.Store { return s.st }

// Priming reports whether this session is a prime-only shard pass.
func (s *Session) Priming() bool { return s.shardM > 0 }

// Shard returns the prime-shard assignment (0, 0 for a normal run).
func (s *Session) Shard() (i, m int) { return s.shardI, s.shardM }

// Coalesced returns how many RunJob calls were served by joining another
// request's in-flight execution instead of starting their own.
func (s *Session) Coalesced() int64 { return s.coalesced.Load() }

// RunJob executes one simulation unit through the session, request-scoped:
// hits are served from the store, misses execute on the calling goroutine,
// and identical in-flight units coalesce — the N-1 late arrivals wait for
// the leader and then read its stored result (one miss, N-1 hits), or
// share the leader's value directly when no store is mounted. Errors are
// never cached and never shared: a failed leader leaves followers to try
// (and surface the failure) themselves.
func (s *Session) RunJob(j runner.Job) (cost.Report, error) {
	k := j.CacheKey()
	for {
		s.mu.Lock()
		if f, ok := s.inflight[k]; ok {
			s.mu.Unlock()
			s.coalesced.Add(1)
			<-f.done
			if f.err != nil {
				// The leader failed; this request runs the unit itself so
				// every caller gets a first-hand verdict.
				continue
			}
			if s.Store() != nil {
				return s.eng.RunOne(j) // the leader's write makes this a hit
			}
			return f.report, nil
		}
		f := &flight{done: make(chan struct{})}
		s.inflight[k] = f
		s.mu.Unlock()
		f.report, f.err = s.eng.RunOne(j)
		s.mu.Lock()
		delete(s.inflight, k)
		s.mu.Unlock()
		close(f.done)
		return f.report, f.err
	}
}

// Close tears the stack down in the canonical order: the store's buffered
// writes (so the stats count them), the end-of-run stats lines (see
// printStats), then the store, then the profiling hooks. Idempotent —
// later calls return nil, so binaries can both defer it and call it
// explicitly before exiting.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.st.Flush()
	s.printStats()
	err := s.st.Close()
	s.stopProf()
	return err
}

// printStats writes the end-of-run store diagnostics every CLI prints to
// stderr: the cache traffic line (CI greps `misses=0` off it) with the
// placement ring's epoch when a fleet is mounted, and one line per
// replica with its key count — a sick replica shows up as its own
// netErrors count instead of blurring into a fleet-wide total, and
// placement skew is visible at a glance from the keys= columns. When any
// replica echoed a newer ring epoch than the one this process mounted,
// a warning names the skew: the run routed by a stale placement (safe —
// failover reads cover moved keys — but a remount re-places it). Against
// a fleet it costs two stats requests per replica: one for the store line,
// one for the replica's own line.
func (s *Session) printStats() {
	prog := s.cfg.Prog
	if s.st != nil {
		ringSuffix := ""
		if s.ring != nil {
			ringSuffix = fmt.Sprintf(" ring=%d", s.ring.Epoch)
		}
		st := s.st.Stats()
		fmt.Fprintf(s.diag, "%s: cache %s (%d entries)%s\n", prog, st, st.Len, ringSuffix) //repro:degrade diagnostic line on stderr
	}
	var newest uint64
	for i, cl := range s.clients {
		label := "remote"
		if len(s.clients) > 1 {
			label = fmt.Sprintf("remote[%d %s]", i, cl.URL())
		}
		t := cl.Traffic()
		fmt.Fprintf(s.diag, "%s: %s keys=%d gets=%d puts=%d retried=%d netErrors=%d\n", //repro:degrade diagnostic line on stderr
			prog, label, cl.Stats().Len, t.Gets, t.Puts, t.Retried, t.NetErrors)
		if e := cl.SeenEpoch(); e > newest {
			newest = e
		}
	}
	if s.ring != nil && newest > s.ring.Epoch {
		fmt.Fprintf(s.diag, "%s: warning: fleet serves ring epoch %d but this run mounted epoch %d — placement is stale, remount to re-place\n", //repro:degrade diagnostic line on stderr
			prog, newest, s.ring.Epoch)
	}
}
