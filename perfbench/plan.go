package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"repro/internal/machine"
	"repro/internal/session"
)

// mixSeed derives an independent seed for one named part of a workload.
func mixSeed(seed int64, part string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, part, i)
	return int64(h.Sum64() >> 1)
}

// proveGroup is one (algorithm, n) cell of the prove sample. The mix holds
// both Θ(n log n)-cost algorithms (yang-anderson) and Θ(n²)-cost ones
// (bakery, peterson, filter, dijkstra).
type proveGroup struct {
	Algo  string
	N     int
	Count int
}

// proveMix lists the groups from the most to the least expensive pipeline
// (about 165, 160, 80, 70, 30 and 25 ms each on one core), and the sample
// is submitted in this order: the longest pipelines start first, so a pass
// ends without a long one-worker tail, and the pipelines that run side by
// side, which set the peak heap, are the same at every seed. The counts put
// the median pipeline inside the peterson group and the p90 one inside the
// top two groups, away from a jump between groups.
var proveMix = []proveGroup{
	{"yang-anderson", 32, 12},
	{"bakery", 16, 10},
	{"filter", 8, 12},
	{"peterson", 32, 24},
	{"dijkstra", 16, 12},
	{"yang-anderson", 16, 36},
}

// proveItem is one pipeline of the sample: a group and a permutation.
type proveItem struct {
	Group int
	Perm  []int
}

// proveSample draws, for every group in proveMix order, Count distinct
// permutations of 0..N-1.
func proveSample(seed int64) []proveItem {
	rng := rand.New(rand.NewSource(mixSeed(seed, "prove", 0)))
	var items []proveItem
	for g, grp := range proveMix {
		seen := make(map[string]bool, grp.Count)
		for len(seen) < grp.Count {
			p := rng.Perm(grp.N)
			k := fmt.Sprint(p)
			if seen[k] {
				continue
			}
			seen[k] = true
			items = append(items, proveItem{Group: g, Perm: p})
		}
	}
	return items
}

// The serve workload's frozen load parameters. Closed-loop capacity (two
// connections, this plan's population, fresh fleet) on a 2-core x86-64 VM
// is 440–450 requests/s over 8 s and 370–380 over 20–30 s, as the stores
// grow. At ¾ of it (330/s), and at 200/s, the due-time p50 of one seed
// ranged over 2× between runs minutes apart, so the open-loop rates are
// about ⅕ and ⅖ of the sustained capacity. closedCount requests, sent back
// to back in serveRounds bursts between low-rate segments, measure
// throughput.
const (
	lowRate     = 75.0
	highRate    = 150.0
	closedCount = 3200
	serveRounds = 4
	hitShare    = 0.2 // planned share of repeats of earlier units
	pairCount   = 3   // identical greedy-cost pairs per phase
	sloLimit    = 50 * time.Millisecond
)

// serveCells are the (algorithm, n) cells of first-seen random-scheduler
// units. filter at n=32 is left out: one such unit simulates for ~160 ms,
// a hundred times the population's typical unit.
var serveCells = func() []session.Unit {
	var cells []session.Unit
	for _, a := range []string{"yang-anderson", "bakery", "peterson", "dijkstra", "filter", "tas", "mcs"} {
		for _, n := range []int{8, 16, 32} {
			if a == "filter" && n == 32 {
				continue
			}
			cells = append(cells, session.Unit{Algo: a, N: n, Sched: "random"})
		}
	}
	return cells
}()

// pairAlgos are the algorithms of the coalescing pairs: greedy-cost at
// n=16 simulates for 9–21 ms with these, long enough for the second request
// of a pair to arrive while the first is in flight.
var pairAlgos = []string{"tas", "mcs", "yang-anderson", "peterson"}

// planned is one request of a serve phase: when it is due, relative to the
// phase start, and the unit it asks for.
type planned struct {
	Due  time.Duration
	Unit session.Unit
	Pair bool // one of an identical back-to-back pair
}

// servePlan builds one phase: count = rate × length requests due at a
// fixed spacing, or all due at once, a closed loop, when rate is 0. Most
// units are first-seen random-scheduler units with seeds unique to (seed,
// phase); a hitShare of them repeat an earlier unit of the phase;
// pairCount pairs of identical first-seen greedy-cost n=16 units are due
// together. phase and phaseIndex must differ between phases that share a
// fleet, so that their first-seen units do not collide.
func servePlan(seed int64, phase string, phaseIndex int, rate float64, count int) []planned {
	rng := rand.New(rand.NewSource(mixSeed(seed, phase, 0)))
	due := func(i int) time.Duration {
		if rate == 0 {
			return 0
		}
		return time.Duration(float64(i) / rate * float64(time.Second))
	}
	var plan []planned
	var fresh []session.Unit
	nextPair := 0
	for i := 0; len(plan) < count; i++ {
		if nextPair < pairCount && i == (nextPair+1)*count/(pairCount+1) {
			u := session.Unit{
				Algo:  pairAlgos[nextPair%len(pairAlgos)],
				N:     16,
				Sched: "greedy-cost",
				// A horizon above the default keeps the execution unchanged
				// and makes the unit's key new to this fleet.
				Horizon: machine.DefaultHorizon(16) + 1 + phaseIndex*pairCount + nextPair,
			}
			plan = append(plan, planned{Due: due(i), Unit: u, Pair: true}, planned{Due: due(i), Unit: u, Pair: true})
			nextPair++
			continue
		}
		if len(fresh) > 0 && rng.Float64() < hitShare {
			plan = append(plan, planned{Due: due(i), Unit: fresh[rng.Intn(len(fresh))]})
			continue
		}
		u := serveCells[rng.Intn(len(serveCells))]
		u.Seed = mixSeed(seed, phase, len(fresh)+1)
		fresh = append(fresh, u)
		plan = append(plan, planned{Due: due(i), Unit: u})
	}
	return plan[:count]
}

// classifyHits marks each request of a plan a hit when an earlier request
// of the plan asked for the same unit, and a miss when it is the unit's
// first occurrence.
func classifyHits(plan []planned) []bool {
	seen := make(map[session.Unit]bool, len(plan))
	hits := make([]bool, len(plan))
	for i, p := range plan {
		hits[i] = seen[p.Unit]
		seen[p.Unit] = true
	}
	return hits
}
