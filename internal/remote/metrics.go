package remote

import (
	"net/http"
	"strings"
)

// Metrics surface: GET /v1/metrics renders the server's counters through
// the shared exposition primitives of expo.go. The endpoint partition
// below is stored's own; cmd/experimentd carries its own partition over
// the same LatencySet machinery.

// metricEndpoints names the latency-histogram partitions, one per /v1
// path plus a catch-all. Order is the exposition order.
var metricEndpoints = [...]string{
	"mget", "mhas", "mput", "mdel", "stats", "compact", "ring", "drain", "metrics", "other",
}

// metricEndpointIndex classifies a request path into metricEndpoints.
func metricEndpointIndex(path string) int {
	name, ok := strings.CutPrefix(path, "/v1/")
	for i, e := range metricEndpoints[:len(metricEndpoints)-1] {
		if ok && name == e {
			return i
		}
	}
	return len(metricEndpoints) - 1
}

// handleMetrics serves GET /v1/metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.req.metrics.Add(1)
	e := StartExposition(w)
	defer e.Flush() //repro:degrade a response-write failure means the scraper hung up

	// Request totals come from the dispatch-time histograms, so every
	// endpoint — stats and metrics included — counts uniformly.
	s.lat.Write(e)

	st := s.st.Stats()
	e.Gauge("stored_entries", "Result entries in the durable tier.", int64(st.Len))
	e.Gauge("stored_blob_entries", "Captured traces in the durable tier.", int64(s.st.TraceLen()))
	e.Gauge("stored_ring_epoch", "Installed placement ring epoch (0 when ring-less).", int64(s.epoch()))
	e.Counter("stored_conflicts_total", "Overwrites that changed a key's bytes (version skew or a writer bug).", s.conflicts.Load())
	e.StoreStats("stored", st)
}
