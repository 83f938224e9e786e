package remote

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/store"
)

// Server is the HTTP face of one authoritative store.Store — the service
// cmd/stored runs. It is an http.Handler; mount it at the root of a
// listener (it owns the whole /v1/ path space). Safe for concurrent use:
// the store is already goroutine-safe, and the conflict check + write of
// each put is serialized so the added/conflict counters stay exact under
// racing writers.
type Server struct {
	st  *store.Store
	log *store.NDJSON // the store's file log, for /v1/compact; nil when it has none
	mux *http.ServeMux

	putMu     sync.Mutex // serializes conflict-check + write per put batch
	conflicts atomic.Int64
	req       struct {
		mget, mhas, mput, mdel, compact, ring, drain, metrics atomic.Int64
	}

	// lat holds one latency histogram per metric endpoint (see metrics.go),
	// observed around every dispatch.
	lat *LatencySet

	ringMu sync.RWMutex
	// ring is nil until a ring is installed (flag or /v1/ring).
	//repro:guardedby ringMu
	ring *store.Ring
	// self is this replica's member name in the ring ("" = unnamed).
	//repro:guardedby ringMu
	self string
}

// NewServer wraps st in the versioned HTTP protocol. log, when non-nil,
// is st's file log, which /v1/compact rewrites. The server owns the
// store's write path but not its lifecycle — the caller still closes st
// after the listener drains.
func NewServer(st *store.Store, log *store.NDJSON) *Server {
	s := &Server{st: st, log: log, mux: http.NewServeMux(), lat: NewLatencySet("stored", metricEndpoints[:])}
	s.mux.HandleFunc("POST /v1/mget", s.handleMGet)
	s.mux.HandleFunc("POST /v1/mhas", s.handleMHas)
	s.mux.HandleFunc("POST /v1/mput", s.handleMPut)
	s.mux.HandleFunc("POST /v1/mdel", s.handleMDel)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/compact", s.handleCompact)
	s.mux.HandleFunc("GET /v1/ring", s.handleRingGet)
	s.mux.HandleFunc("POST /v1/ring", s.handleRingPost)
	s.mux.HandleFunc("POST /v1/drain", s.handleDrain)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	return s
}

// ServeHTTP implements http.Handler, stamping every response with the
// protocol version and the installed ring epoch before dispatch — a
// stale client learns about a resize from its very next reply — and
// timing the dispatch into the endpoint's latency histogram.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := nowMetrics() //repro:wallclock request latency feeds the metrics surface only, never canonical output
	w.Header().Set(VersionHeader, ProtocolVersion)
	w.Header().Set(EpochHeader, strconv.FormatUint(s.epoch(), 10))
	s.mux.ServeHTTP(w, r)
	s.lat.Observe(metricEndpointIndex(r.URL.Path), nowMetrics().Sub(start))
}

// SetSelf names this replica: the ring member identity the server drains
// as. cmd/stored sets it from -name before serving.
func (s *Server) SetSelf(name string) {
	s.ringMu.Lock()
	defer s.ringMu.Unlock()
	s.self = name
}

// Self returns the replica's member name ("" when unnamed).
func (s *Server) Self() string {
	s.ringMu.RLock()
	defer s.ringMu.RUnlock()
	return s.self
}

// Ring returns the installed placement ring (nil when none).
func (s *Server) Ring() *store.Ring {
	s.ringMu.RLock()
	defer s.ringMu.RUnlock()
	return s.ring
}

// epoch returns the installed ring's epoch, 0 when no ring is installed.
func (s *Server) epoch() uint64 {
	s.ringMu.RLock()
	defer s.ringMu.RUnlock()
	if s.ring == nil {
		return 0
	}
	return s.ring.Epoch
}

// InstallRing installs r as the authoritative placement. Epochs must be
// monotonic: a ring older than the installed one is refused (the caller
// raced a newer resize), re-installing the same epoch is an idempotent
// no-op only when the membership matches byte-for-byte — two *different*
// rings claiming one epoch would split the fleet's placement brain.
func (s *Server) InstallRing(r *store.Ring) error {
	if r == nil {
		return fmt.Errorf("remote: nil ring")
	}
	if err := r.Validate(); err != nil {
		return err
	}
	s.ringMu.Lock()
	defer s.ringMu.Unlock()
	if s.ring != nil {
		if r.Epoch < s.ring.Epoch {
			return fmt.Errorf("remote: stale ring epoch %d (installed %d)", r.Epoch, s.ring.Epoch)
		}
		if r.Epoch == s.ring.Epoch {
			if sameRing(r, s.ring) {
				return nil
			}
			return fmt.Errorf("remote: conflicting ring at epoch %d (a resize must bump the epoch)", r.Epoch)
		}
	}
	s.ring = r
	return nil
}

// sameRing reports member-for-member equality.
func sameRing(a, b *store.Ring) bool {
	if len(a.Members) != len(b.Members) {
		return false
	}
	for i := range a.Members {
		if a.Members[i] != b.Members[i] {
			return false
		}
	}
	return true
}

// Conflicts returns the number of writes that overwrote a key with
// different bytes — which content addressing promises never happens, so
// every count is evidence of version skew or a bug in some writer.
func (s *Server) Conflicts() int64 { return s.conflicts.Load() }

// Requests returns per-endpoint request counts.
func (s *Server) Requests() RequestStats {
	return RequestStats{
		MGet:    s.req.mget.Load(),
		MHas:    s.req.mhas.Load(),
		MPut:    s.req.mput.Load(),
		MDel:    s.req.mdel.Load(),
		Compact: s.req.compact.Load(),
		Ring:    s.req.ring.Load(),
		Drain:   s.req.drain.Load(),
		Metrics: s.req.metrics.Load(),
	}
}

// reply writes a JSON body with the given status.
func reply(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //repro:degrade a response-write failure means the peer hung up; the client counts it as a net error
}

// replyError writes the protocol's error body.
func replyError(w http.ResponseWriter, status int, format string, args ...any) {
	reply(w, status, errorReply{Error: fmt.Sprintf(format, args...)})
}

// storeBatch applies one batch of last-write-wins puts, reporting how many
// keys were new and how many overwrote different bytes (conflicts,
// counted). The check + write is serialized so two racing writers of one
// new key count as exactly one added. Old values are read with Peek, so
// write traffic never inflates the store's hit/miss books — and an
// identical rewrite (the common fleet case: a retried push, two shards
// caching one adaptive unit) is dropped outright, so repeated idempotent
// writes never grow the server's append-only log.
func (s *Server) storeBatch(entries []store.Entry) PutReply {
	keys := make([]string, len(entries))
	for i, e := range entries {
		keys[i] = e.Key
	}
	s.putMu.Lock()
	defer s.putMu.Unlock()
	old := s.st.Peek(keys)
	var pr PutReply
	fresh := entries[:0:0]
	for _, e := range entries {
		if o, ok := old[e.Key]; !ok {
			pr.Added++
		} else if bytes.Equal(o, e.Val) {
			continue // byte-identical: the write is already durable
		} else {
			s.conflicts.Add(1)
			pr.Conflicts++
		}
		old[e.Key] = e.Val // a repeat within the batch compares against this write
		fresh = append(fresh, e)
	}
	s.st.PutBatch(fresh) // new keys, or conflicting rewrites: last write wins
	return pr
}

// readRecords decodes an RSB1 request body, handing each record to add;
// keysOnly batches must carry no values, value batches a value per key. A
// false return means the error response has already been written.
func readRecords(w http.ResponseWriter, r *http.Request, keysOnly bool, add func(k string, v []byte)) bool {
	if ct, _, _ := strings.Cut(r.Header.Get("Content-Type"), ";"); strings.TrimSpace(ct) != binaryContentType {
		replyError(w, http.StatusUnsupportedMediaType, "batch bodies must be %s, got %q", binaryContentType, r.Header.Get("Content-Type"))
		return false
	}
	body, err := requestBody(w, r)
	if err != nil {
		replyError(w, http.StatusBadRequest, "bad body: %v", err)
		return false
	}
	defer body.Close() //repro:degrade request body teardown; the decode below already surfaced any read failure
	dec, err := newBinaryDecoder(body)
	if err != nil {
		replyError(w, http.StatusBadRequest, "bad binary body: %v", err)
		return false
	}
	defer dec.Close()
	for {
		k, v, more, err := dec.Next()
		if err != nil {
			replyError(w, http.StatusBadRequest, "bad binary record: %v", err)
			return false
		}
		if !more {
			return true
		}
		if k == "" || keysOnly != (len(v) == 0) {
			replyError(w, http.StatusBadRequest, "malformed record for key %q (keys only: %v)", k, keysOnly)
			return false
		}
		add(k, v)
	}
}

// readKeys decodes a key-only RSB1 request body.
func readKeys(w http.ResponseWriter, r *http.Request) ([]string, bool) {
	var keys []string
	ok := readRecords(w, r, true, func(k string, _ []byte) { keys = append(keys, k) })
	return keys, ok
}

// replyRecords writes a 200 RSB1 reply of one record per key in keys that
// val reports found (val returns nil for key-only records), gzipped when
// the client accepts gzip and the payload reaches gzipMinBytes.
func replyRecords(w http.ResponseWriter, r *http.Request, keys []string, val func(k string) ([]byte, bool)) {
	found := make([]store.Entry, 0, len(keys))
	size := 0
	for _, k := range keys {
		if v, ok := val(k); ok {
			found = append(found, store.Entry{Key: k, Val: v})
			size += len(k) + len(v)
		}
	}
	gz := size >= gzipMinBytes && strings.Contains(r.Header.Get("Accept-Encoding"), "gzip")
	w.Header().Set("Content-Type", binaryContentType)
	if gz {
		w.Header().Set("Content-Encoding", "gzip")
	}
	w.WriteHeader(http.StatusOK)
	writeRecords(w, gz, func(enc *binaryEncoder) { //repro:degrade a truncated response fails the client's decode, which retries or counts a net error
		for _, e := range found {
			enc.Record(e.Key, e.Val)
		}
	})
}

func (s *Server) handleMGet(w http.ResponseWriter, r *http.Request) {
	s.req.mget.Add(1)
	keys, ok := readKeys(w, r)
	if !ok {
		return
	}
	replyRecords(w, r, keys, s.st.Get)
}

// handleMHas is the presence-only sibling of mget: prime passes ask
// "which of these exist?" for whole fan-outs, and values would be wasted
// bytes — the reply carries keys alone.
func (s *Server) handleMHas(w http.ResponseWriter, r *http.Request) {
	s.req.mhas.Add(1)
	keys, ok := readKeys(w, r)
	if !ok {
		return
	}
	present := s.st.Present(keys)
	replyRecords(w, r, keys, func(k string) ([]byte, bool) { return nil, present[k] })
}

func (s *Server) handleMPut(w http.ResponseWriter, r *http.Request) {
	s.req.mput.Add(1)
	var entries []store.Entry
	if !readRecords(w, r, false, func(k string, v []byte) { entries = append(entries, store.Entry{Key: k, Val: v}) }) {
		return
	}
	reply(w, http.StatusOK, s.storeBatch(entries))
}

// handleMDel drops keys under the write lock, so a delete cannot
// interleave with a put batch's check-then-write.
func (s *Server) handleMDel(w http.ResponseWriter, r *http.Request) {
	s.req.mdel.Add(1)
	keys, ok := readKeys(w, r)
	if !ok {
		return
	}
	s.putMu.Lock()
	n, err := s.st.Delete(keys...)
	s.putMu.Unlock()
	if err != nil {
		replyError(w, http.StatusInternalServerError, "delete: %v", err)
		return
	}
	reply(w, http.StatusOK, DeleteReply{Deleted: n})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.st.Stats()
	reply(w, http.StatusOK, StatsReply{
		Protocol:  ProtocolVersion,
		Len:       st.Len,
		Blobs:     s.st.TraceLen(),
		Epoch:     s.epoch(),
		Conflicts: s.conflicts.Load(),
		Requests:  s.Requests(),
		Store:     st,
	})
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	s.req.compact.Add(1)
	kept, dropped, err := s.CompactStore()
	if errors.Is(err, errNoLog) {
		replyError(w, http.StatusNotImplemented, "%v", err)
		return
	}
	if err != nil {
		replyError(w, http.StatusInternalServerError, "compact: %v", err)
		return
	}
	reply(w, http.StatusOK, CompactReply{Kept: kept, Dropped: dropped})
}

// CompactStore compacts the store's log under the write lock: a
// storeBatch racing the file swap could Peek an existing key as absent and
// re-append it, inflating the added counter and regrowing the log
// mid-compaction. Point reads may still race and degrade to counted
// misses, as the store documents. Exported for cmd/stored's lifecycle
// loop, which must take the same lock the HTTP path takes.
func (s *Server) CompactStore() (kept, dropped int, err error) {
	if s.log == nil {
		return 0, 0, errNoLog
	}
	s.putMu.Lock()
	defer s.putMu.Unlock()
	return s.log.Compact()
}

// errNoLog answers a compaction of a store without a file log.
var errNoLog = errors.New("remote: store has no compactable log")

func (s *Server) handleRingGet(w http.ResponseWriter, r *http.Request) {
	s.req.ring.Add(1)
	ring := s.Ring()
	if ring == nil {
		replyError(w, http.StatusNotFound, "no ring installed")
		return
	}
	reply(w, http.StatusOK, ring)
}

func (s *Server) handleRingPost(w http.ResponseWriter, r *http.Request) {
	s.req.ring.Add(1)
	body, err := requestBody(w, r)
	if err != nil {
		replyError(w, http.StatusBadRequest, "bad body: %v", err)
		return
	}
	defer body.Close() //repro:degrade request body teardown; the decode above already surfaced any read failure
	var ring store.Ring
	if err := json.NewDecoder(body).Decode(&ring); err != nil {
		replyError(w, http.StatusBadRequest, "bad ring: %v", err)
		return
	}
	if err := s.InstallRing(&ring); err != nil {
		replyError(w, http.StatusConflict, "%v", err)
		return
	}
	// The header stamped at dispatch predates the install; repeat the new
	// epoch in the body so the installer sees it took.
	reply(w, http.StatusOK, RingReply{Epoch: s.epoch()})
}

// handleDrain streams every key this replica no longer owns under the
// installed ring to the keys' owners and deletes the local copies once
// they land. Requires an installed ring and a self name that maps into it
// or is absent from it (a decommission drains everything); an unnamed
// server cannot know which keys are its own.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	s.req.drain.Add(1)
	ring, self := s.Ring(), s.Self()
	if ring == nil {
		replyError(w, http.StatusConflict, "no ring installed; nothing to drain against")
		return
	}
	if self == "" {
		replyError(w, http.StatusConflict, "server has no member name (-name); cannot tell its keys from foreign ones")
		return
	}
	dr, err := DrainStore(s.st, ring, self)
	if err != nil {
		replyError(w, http.StatusInternalServerError, "drain: %v", err)
		return
	}
	reply(w, http.StatusOK, dr)
}
