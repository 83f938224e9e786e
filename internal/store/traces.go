package store

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Captured execution traces are ordinary store values under a reserved key
// namespace: the trace of the unit stored under result key K lives at
// TracePrefix+K, so it travels through every backend, tier, replica, merge
// and drain exactly like a result does. A trace value is the payload
// gzipped (Go's gzip writes no ModTime, so the bytes are a deterministic
// function of the payload) and carried as a JSON string, so the NDJSON log
// stays line-oriented. The Store keeps trace keys out of the LRU and out
// of the result counters; they count in Stats.BlobStored/BlobFetched/
// BlobBytes instead.
//
// The failure discipline is the result tier's: a trace pathology can cost
// a lost capture or a failed replay (one re-simulation), never a wrong
// result.

// TracePrefix is the reserved key namespace of captured traces.
const TracePrefix = "trace:"

// IsTraceKey reports whether key lies in the trace namespace.
func IsTraceKey(key string) bool { return strings.HasPrefix(key, TracePrefix) }

// TraceEntry encodes a trace payload as the entry that stores it for the
// unit under unitKey — a pure function of its arguments, so a capture can
// ride the same batch as the unit's result.
func TraceEntry(unitKey string, payload []byte) Entry {
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(payload)                  //repro:degrade bytes.Buffer writes cannot fail
	zw.Close()                         //repro:degrade bytes.Buffer writes cannot fail
	val, _ := json.Marshal(gz.Bytes()) //repro:degrade a byte slice always marshals (to a base64 JSON string)
	return Entry{Key: TracePrefix + unitKey, Val: val}
}

// PutTrace stores a trace payload for the unit under unitKey. Failures are
// counted put errors, never surfaced: losing a capture only costs a future
// replay a re-simulation.
func (s *Store) PutTrace(unitKey string, payload []byte) {
	if s != nil && s.be != nil && unitKey != "" {
		s.PutBatch([]Entry{TraceEntry(unitKey, payload)})
	}
}

// GetTrace returns the trace payload captured for the unit under unitKey.
// Any failure — absent key, undecodable value, unreachable tier — is a
// miss; corruption is counted.
func (s *Store) GetTrace(unitKey string) ([]byte, bool) {
	if unitKey == "" {
		return nil, false
	}
	val, ok := s.Get(TracePrefix + unitKey)
	if !ok {
		return nil, false
	}
	payload, err := decodeTrace(val)
	if err != nil {
		s.corrupt.Add(1)
		return nil, false
	}
	return payload, true
}

// maxTracePayload caps a trace's inflated size, so a hostile stored value
// cannot make a replay allocate without bound: a value may be 64 MiB under
// the wire's per-record cap and gzip inflates up to ~1000×. The cap is
// twice the largest capture experimentd's default -max-n admits (dijkstra,
// n=256, random scheduler: a 62 MiB record). A larger trace reads as a
// corrupt miss, which costs its replay one re-simulation.
const maxTracePayload = 128 << 20

var errTraceTooLarge = fmt.Errorf("store: trace inflates past %d bytes", maxTracePayload)

// decodeTrace inverts TraceEntry's encoding; a payload that inflates past
// maxTracePayload is an error.
func decodeTrace(val []byte) ([]byte, error) {
	var gz []byte
	if err := json.Unmarshal(val, &gz); err != nil {
		return nil, err
	}
	// A gzip stream ends in ISIZE, its inflated length mod 2^32: an honest
	// oversized value is refused before a byte of it is inflated, and the
	// LimitReader bounds one whose trailer lies.
	if len(gz) >= 4 && binary.LittleEndian.Uint32(gz[len(gz)-4:]) > maxTracePayload {
		return nil, errTraceTooLarge
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	payload, err := io.ReadAll(io.LimitReader(zr, maxTracePayload+1))
	if cerr := zr.Close(); err == nil {
		err = cerr
	}
	if err == nil && len(payload) > maxTracePayload {
		err = errTraceTooLarge
	}
	return payload, err
}

// TraceKeys returns the unit keys that have a captured trace, sorted, when
// the backend can enumerate its keys (a local directory); nil otherwise.
func (s *Store) TraceKeys() []string {
	keys := s.Keys()
	if keys == nil {
		return nil
	}
	out := []string{}
	for _, k := range keys {
		if IsTraceKey(k) {
			out = append(out, strings.TrimPrefix(k, TracePrefix))
		}
	}
	return out
}

// TraceLen returns the number of stored traces (0 for memory-only stores).
func (s *Store) TraceLen() int {
	if s == nil || s.be == nil {
		return 0
	}
	return s.be.Stats().Traces
}
