// Package construct implements the construction step of the lower bound
// proof (Section 5, Figure 1): given a livelock-free mutual exclusion
// algorithm A and a permutation π ∈ S_n, it builds a set of metasteps M and
// partial order ≼ whose every linearization is an execution of A in which
// the n processes each complete one critical section, in exactly the order
// π — while every process remains invisible to all lower-indexed (in π)
// processes.
//
// Invisibility is achieved by the two insertion rules of Figure 1:
//
//   - a higher-indexed process's write is inserted as a non-winning write
//     into the minimum not-yet-ordered write metastep on the same register,
//     so a lower-indexed process's write immediately overwrites it;
//   - a higher-indexed process's read is inserted into the minimum
//     not-yet-ordered write metastep whose value would change the reader's
//     state (the SC oracle), so the read happens after that write and the
//     reader never observes intermediate values; standalone reads become
//     prereads ordered before the next write metastep on the register.
//
// Generate evaluates δ(Plin(M, ≼, m′), j) on every iteration. The package
// does not re-linearize the down-set of m′ each time: the down-set only
// grows within a stage and stays down-closed, because every iteration adds
// edges only into the metastep that becomes the new m′. Each stage
// therefore keeps one live replay and applies only the metasteps that join
// the down-set, which reaches the same process and register state as a
// replay of the canonical Plin (see generate; a differential test checks
// it at every iteration). A stage costs O(|down-set| + edges) instead of
// O(iterations × |down-set|).
//
// The package requires the algorithm to use only registers (the paper's
// model); factories using RMW primitives are rejected.
package construct

import (
	"errors"
	"fmt"

	"repro/internal/machine"
	"repro/internal/metastep"
	"repro/internal/model"
	"repro/internal/perm"
	"repro/internal/program"
)

// ErrRMW is returned when the algorithm uses read-modify-write primitives,
// which are outside the register-only model of the lower bound.
var ErrRMW = errors.New("construct: algorithm uses RMW primitives; the lower-bound construction requires registers only")

// Result is the output of the construction: the metastep set with its
// partial order, and bookkeeping used by encoding and the experiments.
type Result struct {
	// Set is (M, ≼) after the final stage.
	Set *metastep.Set
	// Perm is the permutation π the construction was run for.
	Perm []int
	// Factory is the algorithm A.
	Factory program.Factory
	// StageSets[i] is a snapshot boundary: the number of metasteps that
	// existed after stage i (prefix counts into Set). Metasteps are only
	// appended and joined, never removed, so Set restricted to IDs below
	// StageSets[i] is NOT (M_i, ≼_i) — later stages may join existing
	// metasteps — but the count is useful diagnostics.
	StageSets []int
	// Iterations is the total number of Generate loop iterations.
	Iterations int
}

// maxIterations bounds one process's Generate loop. A livelock-free
// algorithm terminates (Section 5.1): exceeding the bound means the
// algorithm or the construction is broken.
func maxIterations(n int) int { return 4000 + 400*n }

// Construct runs the n-stage construction (Figure 1, procedure Construct)
// for algorithm f and permutation pi.
func Construct(f program.Factory, pi []int) (*Result, error) {
	return ConstructPartial(f, pi, len(pi))
}

// ConstructPartial runs only the first `stages` stages, producing
// (M_i, ≼_i) for i = stages: the intermediate objects of Section 5 that
// Lemma 5.4 and Theorem 5.5 quantify over. Construct is the stages = n
// case.
func ConstructPartial(f program.Factory, pi []int, stages int) (*Result, error) {
	if f.UsesRMW() {
		return nil, ErrRMW
	}
	n := f.N()
	if len(pi) != n || !perm.IsPermutation(pi) {
		return nil, fmt.Errorf("construct: pi=%v is not a permutation of 0..%d", pi, n-1)
	}
	if stages < 0 || stages > n {
		return nil, fmt.Errorf("construct: stages=%d out of range [0,%d]", stages, n)
	}
	r := &Result{
		Set:     metastep.NewSet(n),
		Perm:    append([]int(nil), pi...),
		Factory: f,
	}
	var d downSet
	for stage := 0; stage < stages; stage++ {
		if err := r.generate(pi[stage], &d); err != nil {
			return nil, fmt.Errorf("construct: stage %d (process %d): %w", stage, pi[stage], err)
		}
		r.StageSets = append(r.StageSets, r.Set.Len())
	}
	if err := r.Set.CheckAcyclic(); err != nil {
		return nil, fmt.Errorf("construct: %w (Lemma 5.2 violated)", err)
	}
	return r, nil
}

// generate implements procedure Generate(M, ≼, j) of Figure 1: it runs
// process j against the current metastep set until j completes its critical
// and exit sections (its rem step), inserting j's steps so that j stays
// invisible to the processes already in the set.
//
// Every iteration evaluates e ← δ(Plin(M, ≼, m′), j). Instead of
// linearizing and replaying the whole down-set of m′ each time, generate
// keeps one live replay of it for the stage (see downSet) and applies only
// the metasteps that entered the down-set since the last iteration. An
// iteration adds edges only into the metastep that becomes the new m′,
// which is fresh or was not ordered before the old m′. So the old down-set
// stays down-closed, the new one is the old one plus ancestors(new m′) \
// old, and "old α, then a topological order of the delta" is a
// linearization of the new down-set. p_j's chain is ≼ m′, so p_j steps in
// the delta only inside the new m′. Writes on each register are totally
// ordered (Lemma 5.3), so every linearization of a down-set should give
// each read the same value and reach the registers and automata of the
// canonical Plin. incremental_test.go checks that claim at every
// iteration instead of assuming it.
func (r *Result) generate(j int, d *downSet) error {
	s := r.Set
	last := metastep.None // m′: the metastep modified or created last
	limit := maxIterations(s.N())
	d.reset(r.Factory)

	for iter := 0; ; iter++ {
		if iter > limit {
			return fmt.Errorf("iteration limit %d exceeded; algorithm may not be livelock-free in the constructed schedule", limit)
		}
		r.Iterations++

		// α ← Plin(M, ≼, m′); e ← δ(α, j), with α kept live in d.rep.
		if err := d.extend(s, last); err != nil {
			return err
		}
		if checkIteration != nil {
			if err := checkIteration(r, last, d); err != nil {
				return err
			}
		}
		rep := d.rep
		if rep.Halted(j) {
			return fmt.Errorf("process %d halted before performing rem", j)
		}
		e := rep.PendingStep(j)

		anc := d.anc
		notOrdered := func(id metastep.ID) bool { return !anc[id] }

		switch e.Kind {
		case model.KindWrite:
			// mw ← min write metastep on ℓ with µ ⋠ m′ (they are totally
			// ordered in creation order, Lemma 5.3).
			mw := metastep.None
			for _, id := range s.WritesOn(e.Reg) {
				if notOrdered(id) {
					mw = id
					break
				}
			}
			if mw != metastep.None {
				s.JoinWrite(mw, e)
				if last != metastep.None {
					s.AddEdge(last, mw)
				}
				last = mw
			} else {
				m := s.NewWriteMeta(e)
				// Mr ← maximal read metasteps on ℓ with µ ⋠ m′: they become
				// prereads, ordered before m, so their readers never see
				// the new value.
				mr := d.maximal(s, s.ReadsOn(e.Reg))
				if len(mr) > 0 {
					s.SetPread(m.ID, mr)
					for _, µ := range mr {
						s.AddEdge(µ, m.ID)
					}
				}
				if last != metastep.None {
					s.AddEdge(last, m.ID)
				}
				last = m.ID
			}

		case model.KindRead:
			// msw ← min write metastep on ℓ with µ ⋠ m′ whose value would
			// change p_j's state (the SC oracle of Figure 1).
			msw := metastep.None
			aut := rep.Automaton(j)
			for _, id := range s.WritesOn(e.Reg) {
				if !notOrdered(id) {
					continue
				}
				if aut.WouldChangeState(s.Meta(id).Value()) {
					msw = id
					break
				}
			}
			if msw != metastep.None {
				s.JoinRead(msw, e)
				if last != metastep.None {
					s.AddEdge(last, msw)
				}
				last = msw
			} else {
				// No future write changes p_j's state: p_j reads the
				// current value. Livelock freedom guarantees this read
				// itself changes p_j's state (else it would be stuck
				// forever); verify it to fail fast on broken inputs.
				cur := rep.Registers().Read(e.Reg)
				if !aut.WouldChangeState(cur) {
					return fmt.Errorf("process %d would busywait forever on r%d=%d with no future write changing its state (livelock)", j, e.Reg, cur)
				}
				m := s.NewReadMeta(e)
				if last != metastep.None {
					s.AddEdge(last, m.ID)
				}
				last = m.ID
			}

		case model.KindCrit:
			m := s.NewCritMeta(e)
			if last != metastep.None {
				s.AddEdge(last, m.ID)
			}
			last = m.ID
			if e.Crit == model.CritRem {
				return nil
			}

		default:
			return ErrRMW
		}
	}
}

// checkIteration, when set, is called at every Generate iteration once the
// down-set of m′ = last is replayed. Production leaves it nil; the
// differential test sets it to compare d with a from-scratch Plin replay.
var checkIteration func(r *Result, last metastep.ID, d *downSet) error

// downSet is Generate's per-stage incremental state: a live replay of
// α = Plin(M, ≼, m′) and the down-set {µ : µ ≼ m′} it covers. Its scratch
// buffers are reused across stages, so a stage allocates little beyond
// its replayer.
type downSet struct {
	rep *machine.Replayer
	anc []bool // anc[µ] ⇔ µ ≼ m′; exactly the metasteps replayed into rep

	// Scratch reused across calls: mark (all false between calls) and
	// queue hold a reverse search outside anc, indeg and heap the delta's
	// topological sort, steps one metastep's expansion.
	mark  []bool
	queue []metastep.ID
	indeg []int32
	heap  []metastep.ID
	steps model.Execution
}

// reset starts a new stage from the initial state and the empty down-set.
func (d *downSet) reset(f program.Factory) {
	d.rep = machine.NewReplayer(f)
	clear(d.anc)
}

// extend grows the down-set to that of last and replays the new metasteps:
// the delta ancestors(last) \ anc, found by a reverse search that stops at
// anc, topologically sorted by itself with ties broken by ascending ID, and
// each expanded canonically.
func (d *downSet) extend(s *metastep.Set, last metastep.ID) error {
	for len(d.anc) < s.Len() {
		d.anc = append(d.anc, false)
		d.mark = append(d.mark, false)
		d.indeg = append(d.indeg, 0)
	}
	if last == metastep.None {
		return nil
	}
	d.mark[last] = true
	d.queue = append(d.queue[:0], last)
	d.searchOutside(s)
	delta := d.queue
	d.heap = d.heap[:0]
	for _, id := range delta {
		var k int32
		for _, p := range s.Preds(id) {
			if d.mark[p] {
				k++
			}
		}
		d.indeg[id] = k
		if k == 0 {
			d.push(id)
		}
	}
	applied := 0
	for len(d.heap) > 0 {
		cur := d.pop()
		d.steps = metastep.AppendSeq(d.steps[:0], s.Meta(cur))
		for _, step := range d.steps {
			if _, err := d.rep.Apply(step); err != nil {
				return fmt.Errorf("replaying Plin prefix at m%d: %w", cur, err)
			}
		}
		d.anc[cur] = true
		applied++
		for _, b := range s.Succs(cur) {
			if d.mark[b] {
				if d.indeg[b]--; d.indeg[b] == 0 {
					d.push(b)
				}
			}
		}
	}
	d.unmark()
	if applied != len(delta) {
		return fmt.Errorf("cycle among the metasteps entering the down-set of m%d (%d of %d ordered)", last, applied, len(delta))
	}
	return nil
}

// maximal returns the ≼-maximal elements among the candidates outside the
// down-set, in candidate order. Because anc is down-closed, a candidate
// outside it precedes another only along a path that avoids anc, so one
// reverse search from all of them that stops at anc marks exactly the
// candidates that precede another.
func (d *downSet) maximal(s *metastep.Set, candidates []metastep.ID) []metastep.ID {
	var out []metastep.ID
	for _, id := range candidates {
		if !d.anc[id] {
			out = append(out, id)
		}
	}
	if len(out) <= 1 {
		return out
	}
	d.queue = d.queue[:0]
	for _, c := range out {
		d.visitPreds(s, c)
	}
	d.searchOutside(s)
	maximal := out[:0]
	for _, c := range out {
		if !d.mark[c] {
			maximal = append(maximal, c)
		}
	}
	d.unmark()
	return maximal
}

// searchOutside runs the reverse search seeded in queue to completion:
// every metastep outside anc that precedes a queued one is marked and
// queued.
func (d *downSet) searchOutside(s *metastep.Set) {
	for i := 0; i < len(d.queue); i++ {
		d.visitPreds(s, d.queue[i])
	}
}

// visitPreds marks and queues id's unmarked direct predecessors outside anc.
func (d *downSet) visitPreds(s *metastep.Set, id metastep.ID) {
	for _, p := range s.Preds(id) {
		if !d.anc[p] && !d.mark[p] {
			d.mark[p] = true
			d.queue = append(d.queue, p)
		}
	}
}

// unmark clears the marks of the last search.
func (d *downSet) unmark() {
	for _, id := range d.queue {
		d.mark[id] = false
	}
}

// push adds id to the min-heap of ready delta metasteps.
func (d *downSet) push(id metastep.ID) {
	h := append(d.heap, id)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	d.heap = h
}

// pop removes and returns the smallest ready ID.
func (d *downSet) pop() metastep.ID {
	h := d.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	d.heap = h
	return top
}

// Linearize returns the canonical linearization α_π of the constructed
// (M, ≼).
func (r *Result) Linearize() (model.Execution, error) {
	return r.Set.Lin(nil)
}

// Cost returns the state change cost C(α) of the canonical linearization.
// By Lemma 6.1 every linearization has the same cost; tests check this.
func (r *Result) Cost() (int, error) {
	alpha, err := r.Linearize()
	if err != nil {
		return 0, err
	}
	_, sc, err := machine.ReplayExecution(r.Factory, alpha)
	if err != nil {
		return 0, err
	}
	return sc, nil
}
