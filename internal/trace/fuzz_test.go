package trace_test

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/trace"
)

// FuzzDecodeRecord feeds arbitrary bytes to the RTB1 record decoder, the
// codec every captured trace is replayed through. Properties:
//
//   - it never panics;
//   - decoding allocates in proportion to the bytes received, never to the
//     step count a header claims;
//   - whatever decodes re-encodes to a record that decodes to the same
//     record (decode∘encode = id on records).
//
// The seed corpus lives in testdata/fuzz/FuzzDecodeRecord; CI runs the
// target briefly with -fuzz.
func FuzzDecodeRecord(f *testing.F) {
	f.Add([]byte("RTB1\x01x\x01\x00\x01\x00\x1a"))
	f.Fuzz(func(t *testing.T, b []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec, err := trace.DecodeRecord(b)
		runtime.ReadMemStats(&after)
		if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20+64*uint64(len(b)) {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(b), grown)
		}
		if err != nil {
			return
		}
		enc, err := trace.EncodeRecord(rec)
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v", err)
		}
		got, err := trace.DecodeRecord(enc)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("decode∘encode changed the record:\n got %+v\nwant %+v", got, rec)
		}
	})
}

// TestDecodeHugeStepCountAllocatesNothingClaimed pins the allocation bound
// outside the fuzzer: a short blob whose header claims 2^20 steps is
// rejected before anything is sized by the claim.
func TestDecodeHugeStepCountAllocatesNothingClaimed(t *testing.T) {
	blob := []byte("RTB1\x01x\x01\x00\x80\x80\x40") // algo "x", n=1, horizon 0, 2^20 steps, no step bytes
	if _, err := trace.DecodeRecord(blob); err == nil {
		t.Fatal("a record claiming 2^20 steps in 0 bytes decoded")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 10
	for i := 0; i < runs; i++ {
		if _, err := trace.DecodeRecord(blob); err == nil {
			t.Fatal("a record claiming 2^20 steps in 0 bytes decoded")
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 1<<10 {
		t.Fatalf("decoding an %d-byte blob claiming 2^20 steps allocated %d bytes per run", len(blob), per)
	}
}

// TestDecodeRejectsNegativeProcess pins the process-range check against a
// process varint past the int range, which used to wrap negative and pass.
func TestDecodeRejectsNegativeProcess(t *testing.T) {
	blob := []byte("RTB1\x01x\x01\x00\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01\x02") // one crit step by process 2^64-1
	if got, err := trace.DecodeRecord(blob); err == nil {
		t.Fatalf("process 2^64-1 accepted: %+v", got.Exec)
	}
}
