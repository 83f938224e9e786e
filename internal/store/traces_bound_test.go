package store

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"testing"
)

// TestGetTraceRefusesOversizedPayload pins the inflation bound: a stored
// trace value that gunzips past maxTracePayload is a counted corrupt miss,
// refused from its gzip trailer before it is inflated.
func TestGetTraceRefusesOversizedPayload(t *testing.T) {
	var gz bytes.Buffer
	zw, err := gzip.NewWriterLevel(&gz, gzip.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	zeros := make([]byte, 1<<20)
	for n := 0; n <= maxTracePayload; n += len(zeros) {
		zw.Write(zeros[:min(len(zeros), maxTracePayload+1-n)]) //repro:degrade bytes.Buffer writes cannot fail
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	val, err := json.Marshal(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.Put(TracePrefix+"bomb", val)
	st.Put(TracePrefix+"ok", TraceEntry("ok", []byte("small")).Val)

	if p, ok := st.GetTrace("bomb"); ok {
		t.Fatalf("a %d-byte value inflating to %d bytes was served (%d bytes)", len(val), maxTracePayload+1, len(p))
	}
	if c := st.Stats().Corrupt; c != 1 {
		t.Fatalf("corrupt=%d, want 1: an oversized trace is a counted miss", c)
	}
	if p, ok := st.GetTrace("ok"); !ok || string(p) != "small" {
		t.Fatalf("a small trace beside it: %q ok=%v", p, ok)
	}
}
