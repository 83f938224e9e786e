package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"repro/internal/experiments"
	"repro/internal/session"
	"repro/internal/store"
)

// suiteCycle is one cold pass of the quick suite over a fresh store, the
// close and reopen, and the warm pass over the reopened store.
type suiteCycle struct {
	open, close, reopen time.Duration
	cold, warm          time.Duration
	perExp              []time.Duration // cold time of E1..E13
	coldStats           store.Stats
	warmStats           store.Stats
	diskBytes           int64
	peakMB              float64 // this process's peak resident set during the cycle
}

// openStore opens a session whose store is the directory dir, with trace
// capture on and the workload's worker count.
func openStore(dir string) (*session.Session, error) {
	return session.Open(session.Config{Prog: "perfbench", CacheDir: dir, Capture: true, Parallel: workers, Diag: io.Discard})
}

// suitePass runs E1..E13 in order on the session's engine, each inside a
// span under one pass span, and returns the tables and their times.
func suitePass(tr *Tracer, name string, run int, s *session.Session, seed int64) ([]*experiments.Table, []time.Duration, error) {
	var tabs []*experiments.Table
	var times []time.Duration
	err := tr.Do(name, 0, run, func(pid int) error {
		for _, e := range experiments.All() {
			var tab *experiments.Table
			start := time.Now()
			err := tr.Do("experiments."+e.ID, pid, run, func(int) (err error) {
				tab, err = e.Run(experiments.Config{Quick: true, Seed: seed, Engine: s.Engine()})
				return err
			})
			times = append(times, time.Since(start))
			if err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			tabs = append(tabs, tab)
		}
		return nil
	})
	return tabs, times, err
}

// cycle runs one suite cycle at the given seed in a fresh directory and
// checks it: every table passes, the warm tables are byte-identical to the
// cold ones, and the warm pass misses nothing.
func (r *run) cycle(tr *Tracer, i int, seed int64) (suiteCycle, error) {
	var c suiteCycle
	dir := filepath.Join(r.work, fmt.Sprintf("store-%d", i))
	defer os.RemoveAll(dir)

	var s *session.Session
	var err error
	c.open = timeIt(func() {
		err = tr.Do("session.Open", 0, i, func(int) (err error) { s, err = openStore(dir); return err })
	})
	if err != nil {
		return c, err
	}
	start := time.Now()
	cold, times, err := suitePass(tr, "suite.cold", i, s, seed)
	c.cold, c.perExp = time.Since(start), times
	if err != nil {
		s.Close()
		return c, err
	}
	c.coldStats = s.Store().Stats()
	c.close = timeIt(func() { err = tr.Do("session.Close", 0, i, func(int) error { return s.Close() }) })
	if err != nil {
		return c, err
	}
	c.diskBytes = dirBytes(dir)

	c.reopen = timeIt(func() {
		err = tr.Do("session.Open", 0, i, func(int) (err error) { s, err = openStore(dir); return err })
	})
	if err != nil {
		return c, err
	}
	start = time.Now()
	warm, _, err := suitePass(tr, "suite.warm", i, s, seed)
	c.warm = time.Since(start)
	c.warmStats = s.Store().Stats()
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return c, err
	}

	for k, t := range cold {
		r.attempted++
		if !t.Pass {
			r.fail("seed %d: %s FAIL", seed, t.ID)
		}
		cj, err1 := json.Marshal(t)
		wj, err2 := json.Marshal(warm[k])
		r.check(err1 == nil && err2 == nil && bytes.Equal(cj, wj), "seed %d: %s warm table differs from cold", seed, t.ID)
	}
	r.check(c.warmStats.Misses == 0, "seed %d: warm pass missed %d times", seed, c.warmStats.Misses)
	return c, nil
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	}) // a file vanishing mid-walk only shrinks a size figure
	return n
}

// measuredCycle runs cycle i, at its seed derived from the workload seed,
// from a fresh heap, and records the cycle's peak resident set.
func (r *run) measuredCycle(tr *Tracer, i int) (suiteCycle, error) {
	if err := freshHeap(); err != nil {
		return suiteCycle{}, err
	}
	c, err := r.cycle(tr, i, mixSeed(r.seed, "suite", i))
	if err != nil {
		return c, err
	}
	c.peakMB, err = vmHWM("self")
	return c, err
}

func runSuite(r *run) error {
	// Cycles until --seconds is spent and until the p90 of untraced
	// experiment times has 100 samples (eight cold passes). A traced run
	// follows each untraced cycle with a traced one at the same seed, so
	// that the overhead ratio compares neighbours.
	const minExp = 100
	var tr *Tracer
	if r.trace {
		tr = newTracer()
	}
	var plain, traced []suiteCycle
	exps := 0
	for start := time.Now(); time.Since(start) < r.seconds || exps < minExp; {
		i := len(plain)
		c, err := r.measuredCycle(nil, i)
		if err != nil {
			return err
		}
		plain = append(plain, c)
		exps += len(c.perExp)
		if r.trace {
			if c, err = r.measuredCycle(tr, i); err != nil {
				return err
			}
			traced = append(traced, c)
		}
	}

	// Per-cycle figures are medians over untraced cycles; the
	// experiment-time percentiles pool their 13 samples a cycle. The result
	// prints those the mode reports: op_tail_ms in a traced run, the rest
	// in an untraced one.
	var setups, rate, peak, exp []float64
	for _, c := range plain {
		setups = append(setups, c.open.Seconds())
		rate = append(rate, float64(len(c.perExp))/c.cold.Seconds())
		peak = append(peak, c.peakMB)
		for _, d := range c.perExp {
			exp = append(exp, ms(d))
		}
	}
	r.set("setup_s", median(setups))
	r.set("ops_per_s", median(rate))
	r.set("op_p50_ms", percentile(exp, 50))
	r.check(qualifies(90, len(exp)), "p90 needs %d samples beyond it, have %d samples", minBeyond, len(exp))
	r.set("op_tail_ms", percentile(exp, 90))
	r.set("max_rss_mb", median(peak))
	if !r.trace {
		return nil
	}

	n := float64(len(traced))
	var warm, closeS, reopen, warmMisses float64
	perExp := make([]float64, 13)
	for _, c := range traced {
		warm += c.warm.Seconds() / n
		closeS += c.close.Seconds() / n
		reopen += c.reopen.Seconds() / n
		warmMisses += float64(c.warmStats.Misses)
		for k, d := range c.perExp {
			perExp[k] += d.Seconds() / n
		}
	}
	for k, v := range perExp {
		r.set(fmt.Sprintf("experiments.E%d_s", k+1), v)
	}
	r.set("suite.warm_s", warm)
	r.set("store.close_s.cold", closeS)
	r.set("store.open_s.warm", reopen)
	r.set("store.misses.warm", warmMisses)
	// Counts come from the first traced cycle, whose seed every traced run
	// of this workload seed shares, so they repeat exactly.
	first := traced[0].coldStats
	r.set("store.hits.cold", float64(first.Hits))
	r.set("store.misses.cold", float64(first.Misses))
	r.set("store.puts.cold", float64(first.Puts))
	r.set("store.dedup_ratio.cold", float64(first.Hits)/float64(first.Hits+first.Misses))
	r.set("store.blob_bytes.cold", float64(first.BlobBytes))
	r.set("store.disk_bytes", float64(traced[0].diskBytes))
	// Overhead: traced against untraced cold passes at the same seeds.
	var pc, tc time.Duration
	for i := range traced {
		pc += plain[i].cold
		tc += traced[i].cold
	}
	r.set("trace.overhead_ratio", tc.Seconds()/pc.Seconds())
	return r.writeTrace(tr)
}
