package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/session"
)

func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d samples) = %v, want %v", tc.n, got, tc.want)
		}
	}
	if !qualifies(90, 106) || qualifies(99, 990) || !qualifies(99, 1000) {
		t.Error("qualifies disagrees with highestPercentile")
	}
}

func TestPercentileAndMedian(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := percentile(xs, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := median(xs); got != 50.5 {
		t.Errorf("median of 1..100 = %v, want 50.5", got)
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
}

func TestSelfTimes(t *testing.T) {
	span := func(id, parent int, name string, start, end time.Duration) Span {
		return Span{ID: id, Parent: parent, Name: name, Start: start, End: end}
	}
	spans := []Span{
		span(1, 0, "pass", 0, 100),
		span(2, 1, "job", 10, 30),
		span(3, 1, "job", 20, 50),  // overlaps the first job: counted once
		span(4, 1, "job", 90, 120), // runs past the parent: clipped
		span(5, 2, "step", 12, 18),
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"pass": 100 - 40 - 10,
		"job":  (20 - 6) + 30 + 30,
		"step": 6,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if tot := totalTimes(spans)["job"]; tot != 80 {
		t.Errorf("total job time = %v, want 80", tot)
	}
}

func TestTracerRecordsNesting(t *testing.T) {
	tr := newTracer()
	_ = tr.Do("outer", 0, 7, func(id int) error {
		return tr.Do("inner", id, 7, func(int) error { return nil })
	})
	s := tr.Spans()
	if len(s) != 2 || s[1].Parent != s[0].ID || s[0].Run != 7 || s[1].End < s[1].Start || s[0].End < s[1].End {
		t.Errorf("spans = %+v", s)
	}
	var off *Tracer
	ran := false
	_ = off.Do("x", 0, 0, func(id int) error { ran = id == 0; return nil })
	if !ran {
		t.Error("a nil tracer must still run the call, with parent ID 0")
	}
}

func TestProveSampleDeterministic(t *testing.T) {
	a, b := proveSample(1), proveSample(1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different samples")
	}
	if reflect.DeepEqual(a, proveSample(secondSeed)) {
		t.Error("different seeds gave the same sample")
	}
	if len(a) < 100 {
		t.Errorf("sample has %d permutations, want at least 100", len(a))
	}
	perGroup := make([]map[string]bool, len(proveMix))
	for g := range perGroup {
		perGroup[g] = map[string]bool{}
	}
	for _, it := range a {
		perGroup[it.Group][string(mustJSON(t, it.Perm))] = true
	}
	for g, grp := range proveMix {
		if len(perGroup[g]) != grp.Count {
			t.Errorf("%s n=%d: %d distinct permutations, want %d", grp.Algo, grp.N, len(perGroup[g]), grp.Count)
		}
	}
}

func TestServePlanDeterministic(t *testing.T) {
	a := servePlan(1, "high", 1, highRate, 3000)
	if !reflect.DeepEqual(a, servePlan(1, "high", 1, highRate, 3000)) {
		t.Fatal("the same seed gave two different plans")
	}
	if reflect.DeepEqual(a, servePlan(2, "high", 1, highRate, 3000)) {
		t.Error("different seeds gave the same plan")
	}
	if len(a) != 3000 {
		t.Fatalf("plan has %d requests, want 3000", len(a))
	}
	pairs := 0
	for i, p := range a {
		if i > 0 && p.Due < a[i-1].Due {
			t.Fatalf("request %d is due before request %d", i, i-1)
		}
		if p.Pair {
			pairs++
			if pairs%2 == 0 && (a[i-1].Unit != p.Unit || a[i-1].Due != p.Due) {
				t.Errorf("pair at %d is not identical and due together", i)
			}
		}
	}
	if pairs != 2*pairCount {
		t.Errorf("%d pair requests, want %d", pairs, 2*pairCount)
	}
	for _, p := range servePlan(1, "closed-0", 1, 0, 800) {
		if p.Due != 0 {
			t.Fatalf("a closed-loop plan has a request due at %v, want all due at once", p.Due)
		}
	}
	other := servePlan(1, "low", 0, lowRate, 3000)
	seen := map[any]bool{}
	for _, p := range a {
		seen[p.Unit] = true
	}
	for _, p := range other {
		if seen[p.Unit] {
			t.Fatalf("phases share unit %+v; a later phase would hit where it plans a miss", p.Unit)
		}
	}
}

func TestClassifyHits(t *testing.T) {
	a := planned{Unit: session.Unit{Algo: "bakery", N: 8, Sched: "random", Seed: 1}}
	b := planned{Unit: session.Unit{Algo: "bakery", N: 8, Sched: "random", Seed: 2}}
	got := classifyHits([]planned{a, b, a, a, b})
	want := []bool{false, false, true, true, true}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("classifyHits = %v, want %v", got, want)
	}

	plan := servePlan(secondSeed, "high", 1, highRate, 5000)
	hits := 0
	for i, h := range classifyHits(plan) {
		if h {
			hits++
		}
		if plan[i].Pair && i > 0 && plan[i-1].Pair && plan[i-1].Unit == plan[i].Unit && !h {
			t.Errorf("second request of a pair at %d classified as a miss", i)
		}
	}
	if share := float64(hits) / float64(len(plan)); share < hitShare-0.03 || share > hitShare+0.03 {
		t.Errorf("planned repeat share %.3f, want about %.2f", share, hitShare)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the metrics
// this program prints, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []string) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i] || m.Unit != unit[want[i]] {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, m.Name, m.Unit, want[i], unit[want[i]])
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q the program lacks", w.Name)
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
