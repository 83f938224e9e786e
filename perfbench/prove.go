package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"time"

	"repro/internal/construct"
	"repro/internal/core"
	"repro/internal/decode"
	"repro/internal/encode"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/program"
	"repro/internal/runner"
	"repro/internal/verify"
)

// pipeOut is what one pipeline of a pass reports back.
type pipeOut struct {
	err   error
	dur   time.Duration
	cost  int
	bits  int
	iters int
	metas int
	hash  [32]byte // decoded execution's digest; set on the check pass only
}

// proveSetup is the prove workload's inputs: the sample, one shared
// read-only factory per group, and the engine.
type proveSetup struct {
	sample []proveItem
	facs   []program.Factory
	eng    *runner.Engine
}

func newProveSetup(seed int64) (*proveSetup, error) {
	s := &proveSetup{sample: proveSample(seed), eng: runner.New(workers)}
	for _, g := range proveMix {
		f, err := runner.NewFactory(g.Algo, g.N)
		if err != nil {
			return nil, err
		}
		s.facs = append(s.facs, f)
	}
	return s, nil
}

// pass runs one pipeline per sample item on the engine and returns the
// outputs in sample order and the pass's wall time. Callers start every
// pass from freshHeap.
func (s *proveSetup) pass(fn func(i int) pipeOut) ([]pipeOut, time.Duration) {
	outs := make([]pipeOut, len(s.sample))
	start := time.Now()
	_ = runner.MapOrdered(s.eng, len(s.sample), func(i int) (pipeOut, error) {
		return fn(i), nil
	}, func(i int, o pipeOut) error {
		outs[i] = o
		return nil
	}) // fn reports failures in-band, so MapOrdered has none to return
	return outs, time.Since(start)
}

// runCore is the untraced pipeline: one timed core.Run call.
func (s *proveSetup) runCore(i int, check bool) pipeOut {
	it := s.sample[i]
	start := time.Now()
	p, err := core.Run(s.facs[it.Group], it.Perm)
	o := pipeOut{dur: time.Since(start), err: err}
	if err != nil {
		return o
	}
	o.cost, o.bits, o.iters, o.metas = p.Cost, p.Encoding.BitLen, p.Result.Iterations, p.Result.Set.Len()
	if check {
		// The digest of Decoded.String(), fed step by step so that the
		// check pass builds no execution-sized string.
		h := sha256.New()
		for k, st := range p.Decoded {
			if k > 0 {
				h.Write([]byte{' '})
			}
			io.WriteString(h, st.String())
		}
		h.Sum(o.hash[:0])
	}
	return o
}

// runTraced makes the calls core.Run makes, in its order and with its
// checks, each inside a span, under one "core.Run" span whose parent is the
// pass. It mirrors core.Run in internal/core/core.go and must change with
// it; runProve fails a traced run whose passes stop costing what core.Run's
// do (maxOverhead).
func (s *proveSetup) runTraced(tr *Tracer, parent, run, i int) pipeOut {
	it := s.sample[i]
	f, pi := s.facs[it.Group], it.Perm
	var o pipeOut
	start := time.Now()
	o.err = tr.Do("core.Run", parent, run, func(pid int) error {
		var res *construct.Result
		if err := tr.Do("construct.Construct", pid, run, func(int) (err error) {
			res, err = construct.Construct(f, pi)
			return err
		}); err != nil {
			return err
		}
		var enc *encode.Encoding
		if err := tr.Do("encode.Encode", pid, run, func(int) (err error) {
			enc, err = encode.Encode(res.Set)
			return err
		}); err != nil {
			return err
		}
		var dec model.Execution
		if err := tr.Do("decode.Decode", pid, run, func(int) (err error) {
			dec, err = decode.Decode(f, enc.Bits, enc.BitLen)
			return err
		}); err != nil {
			return err
		}
		o.bits, o.iters, o.metas = enc.BitLen, res.Iterations, res.Set.Len()
		return tr.Do("verify", pid, run, func(vid int) error {
			if err := tr.Do("metastep.CheckLinearization", vid, run, func(int) error {
				return res.Set.CheckLinearization(dec)
			}); err != nil {
				return err
			}
			if err := tr.Do("verify.MutexExecution", vid, run, func(int) error {
				return verify.MutexExecution(f, dec)
			}); err != nil {
				return err
			}
			if err := tr.Do("verify.EntryOrder", vid, run, func(int) error {
				return verify.EntryOrder(dec, pi)
			}); err != nil {
				return err
			}
			var sc, canonical int
			if err := tr.Do("machine.ReplayExecution", vid, run, func(int) (err error) {
				_, sc, err = machine.ReplayExecution(f, dec)
				return err
			}); err != nil {
				return err
			}
			if err := tr.Do("construct.Result.Cost", vid, run, func(int) (err error) {
				canonical, err = res.Cost()
				return err
			}); err != nil {
				return err
			}
			if sc != canonical {
				return fmt.Errorf("decoded cost %d ≠ canonical cost %d (Lemma 6.1)", sc, canonical)
			}
			o.cost = sc
			return nil
		})
	})
	o.dur = time.Since(start)
	return o
}

// maxOverhead bounds trace.overhead_ratio on prove both ways. The ratio
// read 0.8–1.25 on a 2-core VM, whose pass times vary by about a tenth with
// the host. Construct is 98% of a pipeline, so the check catches core.Run
// switching to a faster or slower construction that runTraced does not
// make, not a change to the checks.
const maxOverhead = 1.5

// setupReps is how many set-ups one setup_s sample times: one takes a few
// milliseconds, too short to time alone against the host's noise.
const setupReps = 20

func runProve(r *run) error {
	// Set-up: sample generation, factories and engine. setup_s is the
	// median of five samples, each the mean of setupReps set-ups.
	var s *proveSetup
	var setups []float64
	for k := 0; k < 5; k++ {
		var err error
		d := timeIt(func() {
			for j := 0; j < setupReps && err == nil; j++ {
				s, err = newProveSetup(r.seed)
			}
		})
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds()/setupReps)
	}
	r.set("setup_s", median(setups))

	// Check pass, off the clock: every pipeline succeeds, and within each
	// group the decoded executions are pairwise distinct (Theorem 7.5's
	// injectivity over the sample). Its outputs are the reference later
	// passes must reproduce exactly.
	if err := freshHeap(); err != nil {
		return err
	}
	ref, _ := s.pass(func(i int) pipeOut { return s.runCore(i, true) })
	distinct := make([]map[[32]byte]bool, len(proveMix))
	for g := range distinct {
		distinct[g] = make(map[[32]byte]bool)
	}
	for i, o := range ref {
		r.attempted++
		if o.err != nil {
			r.fail("check pass: %s n=%d pi=%v: %v", proveMix[s.sample[i].Group].Algo, proveMix[s.sample[i].Group].N, s.sample[i].Perm, o.err)
			continue
		}
		distinct[s.sample[i].Group][o.hash] = true
	}
	for g, grp := range proveMix {
		r.check(len(distinct[g]) == grp.Count, "%s n=%d: %d distinct decoded executions for %d permutations", grp.Algo, grp.N, len(distinct[g]), grp.Count)
	}
	compare := func(label string, outs []pipeOut) {
		for i, o := range outs {
			r.attempted++
			switch {
			case o.err != nil:
				r.fail("%s: pipeline %d: %v", label, i, o.err)
			case o.cost != ref[i].cost || o.bits != ref[i].bits || o.iters != ref[i].iters || o.metas != ref[i].metas:
				r.fail("%s: pipeline %d: (cost,bits,iterations,metasteps) = (%d,%d,%d,%d), check pass had (%d,%d,%d,%d)",
					label, i, o.cost, o.bits, o.iters, o.metas, ref[i].cost, ref[i].bits, ref[i].iters, ref[i].metas)
			}
		}
	}

	// Passes until --seconds is spent. Each pass is a whole replicate of
	// the sample. The throughput is all untraced pipelines over all
	// untraced pass time, and the latencies are percentiles of all
	// untraced pipelines pooled: with four passes in a run, a median of
	// per-pass figures would rest on one pass. A traced run alternates an
	// untraced and a traced pass, so that the overhead ratio compares
	// neighbours.
	var tr *Tracer
	if r.trace {
		tr = newTracer()
	}
	var lat, rss []float64
	var wall, twall time.Duration
	pipelines, tpipelines, passes := 0, 0, 0
	for start := time.Now(); time.Since(start) < r.seconds; {
		if err := freshHeap(); err != nil {
			return err
		}
		stop := sampleRSS()
		outs, d := s.pass(func(i int) pipeOut { return s.runCore(i, false) })
		rss = append(rss, stop()...)
		compare("untraced pass", outs)
		for _, o := range outs {
			if o.err == nil {
				lat = append(lat, ms(o.dur))
				pipelines++
			}
		}
		wall += d
		if !r.trace {
			continue
		}

		// The traced pass: the same sample, each call into a layer in a span.
		if err := freshHeap(); err != nil {
			return err
		}
		_ = tr.Do("runner.MapOrdered", 0, -1-passes, func(id int) error {
			outs, d = s.pass(func(i int) pipeOut { return s.runTraced(tr, id, passes*len(s.sample)+i, i) })
			return nil
		}) // failures are in outs
		compare("traced pass", outs)
		twall += d
		tpipelines += len(outs)
		passes++
	}
	// The result prints those of these the mode reports: op_tail_ms in a
	// traced run, from its untraced passes, the rest in an untraced run.
	r.check(qualifies(90, len(lat)), "p90 needs %d samples beyond it, the passes have %d", minBeyond, len(lat))
	r.set("ops_per_s", float64(pipelines)/wall.Seconds())
	r.set("op_p50_ms", percentile(lat, 50))
	r.set("op_tail_ms", percentile(lat, 90))
	// The high-water resident set: the p90 of 50 ms samples over the
	// untraced passes. A pass's VmHWM hinges on one GC cycle's timing and
	// ranged 25–45 MB between runs of one sample.
	r.set("max_rss_mb", percentile(rss, 90))
	if !r.trace {
		return nil
	}
	spans := tr.Spans()
	self, total := selfTimes(spans), totalTimes(spans)
	perPass := func(name string) float64 { return total[name].Seconds() / float64(passes) }
	r.set("construct.s", self["construct.Construct"].Seconds()/float64(passes))
	r.set("construct.share", total["construct.Construct"].Seconds()/total["core.Run"].Seconds())
	r.set("encode.s", perPass("encode.Encode"))
	r.set("decode.s", perPass("decode.Decode"))
	r.set("verify.s", perPass("verify"))
	r.set("runner.busy_share", total["core.Run"].Seconds()/(total["runner.MapOrdered"].Seconds()*workers))
	r.set("runner.units", float64(len(s.sample)))
	var iters, metas, bits int
	for _, o := range ref {
		iters, metas, bits = iters+o.iters, metas+o.metas, bits+o.bits
	}
	r.set("construct.iterations", float64(iters))
	r.set("construct.metasteps", float64(metas))
	r.set("encode.bits", float64(bits))
	overhead := (twall.Seconds() / float64(tpipelines)) / (wall.Seconds() / float64(pipelines))
	r.set("trace.overhead_ratio", overhead)
	// A traced pass that costs much more or less than a core.Run pass no
	// longer makes the calls core.Run makes, and its layer times describe
	// some other pipeline.
	r.check(overhead < maxOverhead && overhead > 1/maxOverhead,
		"trace.overhead_ratio %.3f is outside (1/%g, %g): runTraced no longer mirrors core.Run", overhead, maxOverhead, maxOverhead)
	return r.writeTrace(tr)
}
