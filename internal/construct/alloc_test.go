package construct_test

import (
	"testing"

	"repro/internal/construct"
	"repro/internal/mutex"
	"repro/internal/perm"
)

// constructAllocBound caps the allocations of one Construct of
// yang-anderson at n=16 for π = perm.Sample(16, 1, 99)[0], the
// BenchmarkConstruct/n=16 input. Generate keeps one live replay per stage
// and replays only the metasteps new to the down-set of m′; that measured
// 3211 allocs per run (go1.24, linux/amd64), and the bound leaves ~25%
// headroom for toolchain drift. Rebuilding and replaying the whole Plin
// prefix on every iteration, as Generate did before, measured 170235
// allocs per run.
const constructAllocBound = 4000

// TestConstructAllocs guards the incremental replay: a Construct at n=16
// must stay within constructAllocBound allocations.
func TestConstructAllocs(t *testing.T) {
	f, err := mutex.New(mutex.NameYangAnderson, 16)
	if err != nil {
		t.Fatal(err)
	}
	pi := perm.Sample(16, 1, 99)[0]
	got := testing.AllocsPerRun(5, func() {
		if _, err := construct.Construct(f, pi); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs per Construct", got)
	if got > constructAllocBound {
		t.Errorf("%.0f allocs per Construct(yang-anderson, n=16), want ≤ %d", got, constructAllocBound)
	}
}
