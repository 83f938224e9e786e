package remote

import (
	"fmt"
	"strings"

	"repro/internal/store"
)

// Mount assembles the result store a CLI asked for from its -cache DIR and
// -store URL[,URL…] flags:
//
//	cacheDir only   → the local NDJSON-backed store (PR-3 behaviour)
//	one store URL   → the fleet store, mounted through a Client
//	N store URLs    → a store.Router over N fleet instances: each key is
//	                  owned by exactly one instance (the fleet's placement
//	                  ring), batches split per replica, a down replica
//	                  fails over to the runner-up and then degrades to
//	                  misses instead of failing the run
//	cacheDir + URLs → a store.Tiered: the local directory as a near tier in
//	                  front of the fleet tier, so each process pays one
//	                  remote round trip per key ever
//	neither         → no store (st is nil), plain uncached execution
//
// Captured traces are values under the store's trace namespace, so they
// ride every shape above with the results: a trace fetched from the fleet
// is written back into the local directory like any far-tier hit.
//
// Placement comes from the fleet itself when it has one: the mount asks
// every listed replica for its installed ring (/v1/ring) and routes by the
// newest epoch found, dialing any ring member the flag list omitted — so
// a worker can mount a whole fleet by naming one member, and a resized
// fleet re-places every client at its next mount with no flag changes.
// When no replica serves a ring, placement falls back to the flag list
// (epoch 0, URL order), which is why the list is then order-sensitive:
// every process must pass the same URLs in the same order. A flag URL
// that is not a member of the fleet's ring is refused — writing through a
// replica the ring does not own would split the fleet's placement brain.
//
// Every replica is pinged once so an unreachable address, a wrong port, or
// a non-stored endpoint fails fast and loudly here — once a run is
// underway the degrade-to-miss discipline would hide a typoed URL behind a
// silently cold (or silently half-cold) cache. Besides the store it
// returns the clients, one per replica in ring order (flag order when no
// ring is served; empty when storeURL is empty), and the placement ring
// the mount routes by: the fleet's authoritative ring when any replica
// serves one, the epoch-0 flag ring for a multi-URL list without one, nil
// for local-only and single-replica mounts.
func Mount(cacheDir, storeURL string) (st *store.Store, cls []*Client, ring *store.Ring, err error) {
	var be store.Backend
	if urls := splitList(storeURL); storeURL != "" && len(urls) == 0 {
		// "," or whitespace: the caller asked for a fleet store and named no
		// member (an unset env var in `-store "$A,$B"`); silently mounting
		// nothing would be the silently-cold cache this function fails fast on.
		return nil, nil, nil, fmt.Errorf("remote: bad store URL list %q: no URLs", storeURL)
	} else if len(urls) > 0 {
		flagClients := make([]*Client, len(urls))
		for i, u := range urls {
			cl, err := NewClient(u, nil)
			if err != nil {
				return nil, nil, nil, err
			}
			sr, err := cl.Ping()
			if err != nil {
				return nil, nil, nil, fmt.Errorf("store %s unreachable: %w", u, err)
			}
			if sr.Protocol != ProtocolVersion {
				return nil, nil, nil, fmt.Errorf("store %s speaks protocol %q, this binary speaks %q", u, sr.Protocol, ProtocolVersion)
			}
			flagClients[i] = cl
		}
		// Discover the fleet's placement: the newest ring any listed replica
		// serves wins (a half-installed resize resolves to the new epoch).
		// Discovery is best-effort per replica — placement can be learned
		// from ANY member, so a half-alive replica whose /v1/ring errors
		// just contributes no opinion; if no member serves a ring the flag
		// list takes over, and a stale mount is caught by the epoch echoed
		// on every later reply.
		for _, cl := range flagClients {
			r, err := cl.FetchRing()
			if err != nil {
				continue
			}
			if r != nil && (ring == nil || r.Epoch > ring.Epoch) {
				ring = r
			}
		}
		cls = flagClients
		if ring != nil {
			if cls, err = ringClients(ring, flagClients); err != nil {
				return nil, nil, nil, err
			}
		} else if len(cls) > 1 {
			ring = store.FlagRing(urls...)
		}
		if ring == nil {
			be = cls[0]
		} else {
			replicas := make([]store.Backend, len(cls))
			for i, cl := range cls {
				replicas[i] = cl
			}
			be = store.NewRingRouter(ring, replicas...)
		}
	}
	if cacheDir != "" {
		local, err := store.OpenNDJSON(cacheDir)
		if err != nil {
			return nil, nil, nil, err
		}
		if be != nil {
			be = store.NewTiered(local, be)
		} else {
			be = local
		}
	}
	if be == nil {
		return nil, nil, nil, nil
	}
	return store.New(0, be), cls, ring, nil
}

// ringClients maps an authoritative ring onto clients, one per member in
// ring order: flag clients are matched to their member by URL (a flag URL
// outside the ring is refused), members the flag list omitted are dialed
// and pinged here so the whole fleet fails fast like flag replicas do.
func ringClients(ring *store.Ring, flagClients []*Client) ([]*Client, error) {
	byURL := make(map[string]*Client, len(flagClients))
	for _, cl := range flagClients {
		byURL[cl.URL()] = cl
	}
	cls := make([]*Client, len(ring.Members))
	for i, m := range ring.Members {
		if m.URL == "" {
			return nil, fmt.Errorf("remote: ring member %q has no URL", m.Name)
		}
		if cl, ok := byURL[strings.TrimRight(m.URL, "/")]; ok {
			cls[i] = cl
			delete(byURL, cl.URL())
			continue
		}
		cl, err := NewClient(m.URL, nil)
		if err != nil {
			return nil, fmt.Errorf("remote: ring member %q: %w", m.Name, err)
		}
		if _, err := cl.Ping(); err != nil {
			return nil, fmt.Errorf("remote: ring member %q (%s) unreachable: %w", m.Name, m.URL, err)
		}
		cls[i] = cl
	}
	for u := range byURL {
		return nil, fmt.Errorf("remote: store %s is not a member of the fleet's ring (epoch %d, members %s)",
			u, ring.Epoch, strings.Join(ring.Names(), ","))
	}
	return cls, nil
}

// splitList splits a comma-separated flag value, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
