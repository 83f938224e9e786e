package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/remote"
	"repro/internal/store"
)

// TestRemoteStoreFleetByteIdentical is the acceptance matrix for the
// fleet-shared store at the binary level: two concurrent clients prime
// disjoint shards against one stored service, after which replays through
// the remote store are byte-identical to a cold local sequential run at
// workers 1, 4 and 8 — and a warm re-run executes zero simulations, pinned
// here as "the server saw zero additional writes and holds zero additional
// entries".
func TestRemoteStoreFleetByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet determinism matrix skipped in -short mode")
	}
	cold := runArgs(t, "-parallel", "1")

	authoritative, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer authoritative.Close()
	srv := remote.NewServer(authoritative, nil)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Two concurrent worker processes, each priming its shard of the key
	// space into the shared store. (Within this test they are goroutines
	// driving the full binary entrypoint; the CI smoke job runs the same
	// flow as two OS processes.)
	var wg sync.WaitGroup
	shardOut := make([]bytes.Buffer, 2)
	shardErr := make([]error, 2)
	for i := range shardOut {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			shardErr[i] = run([]string{
				"-quick", "-only", cacheTestOnly, "-json",
				"-store", ts.URL, "-shard", fmt.Sprintf("%d/2", i+1), "-parallel", "4",
			}, &shardOut[i])
		}(i)
	}
	wg.Wait()
	for i := range shardErr {
		if shardErr[i] != nil {
			t.Fatalf("shard %d/2: %v", i+1, shardErr[i])
		}
		if shardOut[i].Len() != 0 {
			t.Fatalf("shard %d/2 wrote %d bytes to the data stream, want none", i+1, shardOut[i].Len())
		}
	}
	if got := srv.Conflicts(); got != 0 {
		t.Fatalf("content-addressed writers conflicted %d times", got)
	}

	// Replays through the shared store: byte-identical to the cold local
	// run at every worker count.
	for _, w := range []int{1, 4, 8} {
		if got := runArgs(t, "-store", ts.URL, "-parallel", fmt.Sprint(w)); !bytes.Equal(got, cold) {
			t.Fatalf("fleet replay at -parallel %d differs from cold local run:\n%s\nvs\n%s", w, got, cold)
		}
	}

	// Warm re-runs over the remote store execute zero simulations: every
	// result a simulation would produce is already served, so the server
	// sees no new writes and stores no new entries.
	entries := authoritative.Len()
	req := srv.Requests()
	if got := runArgs(t, "-store", ts.URL, "-parallel", "4"); !bytes.Equal(got, cold) {
		t.Fatal("warm fleet re-run diverged")
	}
	reqAfter := srv.Requests()
	if reqAfter.MPut != req.MPut {
		t.Fatalf("warm re-run wrote to the store (mput %d→%d): simulations executed",
			req.MPut, reqAfter.MPut)
	}
	if got := authoritative.Len(); got != entries {
		t.Fatalf("warm re-run grew the store %d→%d entries", entries, got)
	}

	// -cache composes with -store as a local near tier: the first tiered
	// run pulls each key down once; a second tiered run does not consult
	// the fleet store at all.
	nearDir := t.TempDir()
	if got := runArgs(t, "-cache", nearDir, "-store", ts.URL, "-parallel", "4"); !bytes.Equal(got, cold) {
		t.Fatal("tiered replay diverged")
	}
	req = srv.Requests()
	if got := runArgs(t, "-cache", nearDir, "-store", ts.URL, "-parallel", "4"); !bytes.Equal(got, cold) {
		t.Fatal("near-tier replay diverged")
	}
	reqAfter = srv.Requests()
	if reqAfter.MGet != req.MGet || reqAfter.MHas != req.MHas {
		t.Fatalf("near-tier replay still consulted the fleet store (mget %d→%d, mhas %d→%d)",
			req.MGet, reqAfter.MGet, req.MHas, reqAfter.MHas)
	}
}

// TestRouterFleetFailoverDeterminism is the acceptance matrix for the
// multi-store router at the binary level: a -store URL1,URL2,URL3 run
// spreads the key space across three stored instances with all writes
// batched (fewer write requests than keys), replays byte-identically to a
// cold local run, keeps producing the exact same bytes at workers 1/4/8
// while one replica is down (its keys degrade to misses and re-execute),
// and reports zero re-executions once the replica is healthy again.
func TestRouterFleetFailoverDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("router failover matrix skipped in -short mode")
	}
	const only = "E2,E4"
	runOnly := func(t *testing.T, args ...string) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := run(append([]string{"-quick", "-only", only, "-json"}, args...), &buf); err != nil {
			t.Fatalf("run %v: %v", args, err)
		}
		return buf.Bytes()
	}
	cold := runOnly(t, "-parallel", "1")

	// Three stored instances. Each can be marked sick: data operations fail
	// (500) while /v1/stats keeps answering — the half-alive replica that a
	// health check misses, which is exactly when degrade-to-miss must hold.
	const replicas = 3
	stores := make([]*store.Store, replicas)
	servers := make([]*remote.Server, replicas)
	sick := make([]atomic.Bool, replicas)
	urls := make([]string, replicas)
	for i := 0; i < replicas; i++ {
		st, err := store.Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = st
		servers[i] = remote.NewServer(st, nil)
		srv, i := servers[i], i
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if sick[i].Load() && r.URL.Path != "/v1/stats" {
				http.Error(w, "replica down", http.StatusInternalServerError)
				return
			}
			srv.ServeHTTP(w, r)
		}))
		urls[i] = ts.URL
		t.Cleanup(func() {
			ts.Close()
			st.Close()
		})
	}
	storeList := strings.Join(urls, ",")

	// Cold run through the router: byte-identical, key space spread across
	// every replica, and the prime path's writes travel as batched mputs —
	// not one synchronous put per executed unit.
	if got := runOnly(t, "-store", storeList, "-parallel", "4"); !bytes.Equal(got, cold) {
		t.Fatalf("routed cold run differs from local cold run:\n%s\nvs\n%s", got, cold)
	}
	total := 0
	for i, st := range stores {
		n := st.Len()
		if n == 0 {
			t.Fatalf("replica %d holds no keys — routing is degenerate", i)
		}
		total += n
		if req := servers[i].Requests(); req.MPut == 0 || req.MPut >= int64(n) {
			t.Fatalf("replica %d saw mput=%d for %d keys, want batched writes only", i, req.MPut, n)
		}
	}

	// One replica down: its keys miss and re-execute, the output bytes do
	// not move, at any worker count.
	sick[1].Store(true)
	for _, w := range []int{1, 4, 8} {
		if got := runOnly(t, "-store", storeList, "-parallel", fmt.Sprint(w)); !bytes.Equal(got, cold) {
			t.Fatalf("failover run at -parallel %d differs from cold run", w)
		}
	}
	sick[1].Store(false)

	// Healthy again: a warm run serves everything from the fleet tier —
	// no writes, no entry growth anywhere (the re-executions during the
	// outage deduplicated against the replica's existing entries).
	before := make([]remote.RequestStats, replicas)
	for i := range servers {
		before[i] = servers[i].Requests()
	}
	if got := runOnly(t, "-store", storeList, "-parallel", "4"); !bytes.Equal(got, cold) {
		t.Fatal("post-recovery warm run diverged")
	}
	warmTotal := 0
	for i := range servers {
		after := servers[i].Requests()
		if after.MPut != before[i].MPut {
			t.Fatalf("replica %d: warm run wrote (mput %d→%d): simulations executed",
				i, before[i].MPut, after.MPut)
		}
		warmTotal += stores[i].Len()
	}
	if warmTotal != total {
		t.Fatalf("warm run grew the fleet %d→%d entries", total, warmTotal)
	}
}

// TestStoreFlagValidation pins the -store flag's loud failure modes: a
// malformed URL and an unreachable server — anywhere in a replica list —
// are startup errors, not silently cold caches.
func TestStoreFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-store", "not a url", "-only", "E2"}, &buf); err == nil {
		t.Fatal("malformed -store URL accepted")
	}
	if err := run([]string{"-store", "http://127.0.0.1:1", "-only", "E2"}, &buf); err == nil {
		t.Fatal("unreachable -store URL accepted")
	}
	healthy, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	ts := httptest.NewServer(remote.NewServer(healthy, nil))
	defer ts.Close()
	if err := run([]string{"-store", ts.URL + ",http://127.0.0.1:1", "-only", "E2"}, &buf); err == nil {
		t.Fatal("replica list with an unreachable member accepted")
	}
	if buf.Len() != 0 {
		t.Fatalf("error paths wrote to the data stream: %q", buf.String())
	}
}

// TestRemoteCaptureTraffic pins what one capture run costs a stored: the
// traces ride the results' write batches (fewer mput requests than traces
// stored, instead of one synchronous mput per captured unit), and the
// end-of-run stats lines cost two /v1/stats requests on top of the
// mount's ping — one for the store line, one for the replica line.
func TestRemoteCaptureTraffic(t *testing.T) {
	authoritative, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer authoritative.Close()
	srv := remote.NewServer(authoritative, nil)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var buf bytes.Buffer
	if err := run([]string{"-quick", "-only", "E2", "-json", "-store", ts.URL, "-capture"}, &buf); err != nil {
		t.Fatal(err)
	}
	traces := authoritative.Stats().BlobStored
	if mputs := srv.Requests().MPut; traces == 0 || mputs >= traces {
		t.Fatalf("%d mput requests for %d traces stored: captures must ride the batched writes", mputs, traces)
	}

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	const want = `stored_requests_total{endpoint="stats"} 3`
	if !strings.Contains(string(body), want+"\n") {
		t.Fatalf("stats requests after one run: want %q in\n%s", want, body)
	}
}
