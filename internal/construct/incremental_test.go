package construct

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/machine"
	"repro/internal/metastep"
	"repro/internal/model"
	"repro/internal/mutex"
	"repro/internal/perm"
	"repro/internal/program"
)

// errDiverged marks a difference between Generate's live replay and the
// from-scratch Plin replay it replaces.
var errDiverged = errors.New("incremental replay diverged from Plin")

// oracleCheck compares Generate's incremental state at one iteration with
// the slow path it replaces: anc must equal AncestorsOf(last), and the live
// replay must match a fresh Replayer fed the canonical Plin(M, ≼, m′) in
// every process's halted flag, pending step and automaton state, and in the
// whole register file.
func oracleCheck(r *Result, last metastep.ID, rep *machine.Replayer, anc []bool) error {
	s := r.Set
	if want := s.AncestorsOf(last); !slices.Equal(anc, want) {
		return fmt.Errorf("%w: m′=m%d: down-set %v, want %v", errDiverged, last, ids(anc), ids(want))
	}
	alpha, err := s.Plin(last, nil)
	if err != nil {
		return err
	}
	ref := machine.NewReplayer(r.Factory)
	if _, err := ref.ApplyAll(alpha); err != nil {
		return fmt.Errorf("%w: m′=m%d: canonical Plin does not replay: %v", errDiverged, last, err)
	}
	if got, want := rep.Applied(), ref.Applied(); got != want {
		return fmt.Errorf("%w: m′=m%d: %d steps replayed, Plin has %d", errDiverged, last, got, want)
	}
	if got, want := rep.Registers().Snapshot(), ref.Registers().Snapshot(); !slices.Equal(got, want) {
		return fmt.Errorf("%w: m′=m%d: registers %v, want %v", errDiverged, last, got, want)
	}
	for i := 0; i < rep.N(); i++ {
		if got, want := rep.Halted(i), ref.Halted(i); got != want {
			return fmt.Errorf("%w: m′=m%d: p%d halted=%v, want %v", errDiverged, last, i, got, want)
		}
		if !ref.Halted(i) {
			if got, want := rep.PendingStep(i), ref.PendingStep(i); got != want {
				return fmt.Errorf("%w: m′=m%d: p%d pending %v, want %v", errDiverged, last, i, got, want)
			}
		}
		if !sameAutomaton(rep.CloneAutomaton(i), ref.CloneAutomaton(i)) {
			return fmt.Errorf("%w: m′=m%d: p%d state %s, want %s", errDiverged, last, i,
				rep.Automaton(i).StateKey(), ref.Automaton(i).StateKey())
		}
	}
	return nil
}

// maximalCheck compares downSet.maximal with the pairwise definition it
// replaces (the read metasteps outside anc that precede no
// other such read) on the register of the stage process's pending write,
// where Generate asks for it.
func maximalCheck(r *Result, last metastep.ID, d *downSet) error {
	s := r.Set
	j := r.Perm[len(r.StageSets)]
	if d.rep.Halted(j) || d.rep.PendingStep(j).Kind != model.KindWrite {
		return nil
	}
	reg := d.rep.PendingStep(j).Reg
	reads := s.ReadsOn(reg)
	var unordered, want []metastep.ID
	for _, id := range reads {
		if !d.anc[id] {
			unordered = append(unordered, id)
		}
	}
	precedesOther := make(map[metastep.ID]bool)
	for _, o := range unordered {
		below := s.AncestorsOf(o)
		for _, c := range unordered {
			if c != o && below[c] {
				precedesOther[c] = true
			}
		}
	}
	for _, c := range unordered {
		if !precedesOther[c] {
			want = append(want, c)
		}
	}
	if got := d.maximal(s, reads); !slices.Equal(got, want) {
		return fmt.Errorf("%w: m′=m%d: maximal reads on r%d %v, want %v", errDiverged, last, reg, got, want)
	}
	return nil
}

// fullCheck is the hook the differential tests install: the replay and
// down-set oracle, then the maximal-reads oracle.
func fullCheck(r *Result, last metastep.ID, d *downSet) error {
	if err := oracleCheck(r, last, d.rep, d.anc[:r.Set.Len()]); err != nil {
		return err
	}
	return maximalCheck(r, last, d)
}

// sameAutomaton reports whether two automata are clones of one state: same
// process, program, program counter, locals and halted flag.
func sameAutomaton(a, b *program.Automaton) bool {
	return a.Proc() == b.Proc() && a.Program() == b.Program() && a.PC() == b.PC() &&
		a.Halted() == b.Halted() && slices.Equal(a.Env(), b.Env())
}

// ids lists the members of a down-set bitmap.
func ids(in []bool) []int {
	var out []int
	for id, ok := range in {
		if ok {
			out = append(out, id)
		}
	}
	return out
}

// withHook installs check as Generate's per-iteration hook for the test's
// duration and counts the calls.
func withHook(t *testing.T, check func(*Result, metastep.ID, *downSet) error) *int {
	t.Helper()
	calls := new(int)
	checkIteration = func(r *Result, last metastep.ID, d *downSet) error {
		*calls++
		return check(r, last, d)
	}
	t.Cleanup(func() { checkIteration = nil })
	return calls
}

// registerAlgos returns every register-only algorithm that accepts n
// processes.
func registerAlgos(t *testing.T, n int) []*mutex.Factory {
	t.Helper()
	var out []*mutex.Factory
	for _, name := range mutex.Names() {
		f, err := mutex.New(name, n)
		if err != nil || f.UsesRMW() {
			continue
		}
		out = append(out, f)
	}
	return out
}

// constructChecked runs ConstructPartial under the oracle and requires
// every Generate iteration to have been checked.
func constructChecked(t *testing.T, f *mutex.Factory, pi []int, stages int) {
	t.Helper()
	calls := withHook(t, fullCheck)
	res, err := ConstructPartial(f, pi, stages)
	if err != nil {
		t.Fatalf("%s pi=%v stages=%d: %v", f.Name(), pi, stages, err)
	}
	if *calls != res.Iterations {
		t.Fatalf("%s pi=%v stages=%d: oracle saw %d of %d iterations", f.Name(), pi, stages, *calls, res.Iterations)
	}
}

// TestIncrementalMatchesPlinExhaustive: for every register algorithm and
// every π ∈ S_n with n up to the exhaustive quick sweep's 5, Generate's
// live replay equals the from-scratch Plin replay at every iteration.
func TestIncrementalMatchesPlinExhaustive(t *testing.T) {
	for n := 1; n <= 5; n++ {
		for _, f := range registerAlgos(t, n) {
			t.Run(fmt.Sprintf("%s/n=%d", f.Name(), n), func(t *testing.T) {
				perm.ForEach(n, func(pi []int) bool {
					constructChecked(t, f, pi, n)
					return !t.Failed()
				})
			})
		}
	}
}

// TestIncrementalMatchesPlinSampled: the same check on seeded n=8 and n=16
// permutations, where stages join metasteps deep in earlier processes'
// chains and deltas span many metasteps.
func TestIncrementalMatchesPlinSampled(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{8, 3}, {16, 1}} {
		if testing.Short() && tc.n > 8 {
			continue
		}
		for _, f := range registerAlgos(t, tc.n) {
			t.Run(fmt.Sprintf("%s/n=%d", f.Name(), tc.n), func(t *testing.T) {
				for _, pi := range perm.Sample(tc.n, tc.k, 20060723+int64(tc.n)) {
					constructChecked(t, f, pi, tc.n)
				}
			})
		}
	}
}

// TestIncrementalMatchesPlinPartial: ConstructPartial at every stage count,
// so the oracle also covers (M_i, ≼_i) for every i, including the empty
// construction.
func TestIncrementalMatchesPlinPartial(t *testing.T) {
	for _, n := range []int{5, 8} {
		for _, f := range registerAlgos(t, n) {
			pi := perm.Sample(n, 1, 99)[0]
			for stages := 0; stages <= n; stages++ {
				t.Run(fmt.Sprintf("%s/n=%d/stages=%d", f.Name(), n, stages), func(t *testing.T) {
					constructChecked(t, f, pi, stages)
				})
			}
		}
	}
}

// TestOracleRejectsBrokenState is the oracle's own control: handed a
// down-set with one member dropped, or the replay of the previous
// iteration's down-set instead of the current one, it must report
// divergence. A checker that accepted either would pass a Generate that
// skipped part of the delta.
func TestOracleRejectsBrokenState(t *testing.T) {
	f, err := mutex.New(mutex.NameYangAnderson, 5)
	if err != nil {
		t.Fatal(err)
	}
	var prev *machine.Replayer
	var checked, droppedRejected, staleRejected int
	withHook(t, func(r *Result, last metastep.ID, d *downSet) error {
		rep, anc := d.rep, d.anc[:r.Set.Len()]
		if err := oracleCheck(r, last, rep, anc); err != nil {
			return err
		}
		if last == metastep.None {
			prev = nil
			return nil
		}
		checked++
		broken := slices.Clone(anc)
		broken[last] = false
		if errors.Is(oracleCheck(r, last, rep, broken), errDiverged) {
			droppedRejected++
		}
		if prev != nil && errors.Is(oracleCheck(r, last, prev, anc), errDiverged) {
			staleRejected++
		}
		alpha, err := r.Set.Plin(last, nil)
		if err != nil {
			return err
		}
		prev = machine.NewReplayer(r.Factory)
		_, err = prev.ApplyAll(alpha)
		return err
	})
	if _, err := Construct(f, []int{3, 0, 4, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if checked == 0 || droppedRejected != checked {
		t.Fatalf("oracle rejected a dropped down-set member at %d of %d iterations", droppedRejected, checked)
	}
	// The first iteration of each stage has no previous state to go stale.
	if staleRejected != checked-f.N() {
		t.Fatalf("oracle rejected a stale replay at %d of %d iterations", staleRejected, checked-f.N())
	}
}
