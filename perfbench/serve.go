package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/runner"
	"repro/internal/session"
	"repro/internal/store"
)

// proc is one daemon the benchmark started from the repository's cmd/.
type proc struct {
	cmd    *exec.Cmd
	url    string
	copied chan struct{} // closed once the daemon's stdout is drained
}

// startProc starts bin and waits for its "listening on http://ADDR" line.
// The daemon's output goes to logPath; it is killed if this process dies.
func startProc(bin, logPath string, args ...string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	p := &proc{cmd: cmd, copied: make(chan struct{})}
	first := make(chan string, 1)
	go func() {
		defer close(p.copied)
		defer logf.Close()
		br := bufio.NewReader(out)
		line, _ := br.ReadString('\n') // a short read leaves no address, reported below
		first <- line
		_, _ = io.Copy(logf, br) // the log is diagnostic; a failed copy loses only log lines
	}()
	select {
	case line := <-first:
		const marker = "listening on "
		if i := strings.Index(line, marker); i >= 0 {
			p.url = strings.TrimSpace(line[i+len(marker):])
			if err = waitServing(p.url); err == nil {
				return p, nil
			}
			break
		}
		err = fmt.Errorf("%s printed %q, not its address (log: %s)", filepath.Base(bin), line, logPath)
	case <-time.After(30 * time.Second):
		err = fmt.Errorf("%s did not publish an address within 30s", filepath.Base(bin))
	}
	return nil, errors.Join(err, p.stop())
}

// waitServing polls url's /v1/metrics until it answers 200. The daemons
// print their address before they install their signal handlers and start
// serving; a served request proves both have happened.
func waitServing(url string) error {
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := c.Get(url + "/v1/metrics")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained only to reuse the connection
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not serving after 30s: %w", url, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop asks the daemon to drain and exit, kills it after 15 s, and waits
// until it has ended.
func (p *proc) stop() error {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // an already-exited daemon is reaped by Wait below
	select {
	case <-p.copied:
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill() // Wait reports the outcome
		<-p.copied
	}
	return p.cmd.Wait()
}

// fleet is a routed two-stored fleet with one experimentd on it.
type fleet struct {
	stored []*proc
	daemon *proc
}

func (r *run) startFleet(tag string) (*fleet, error) {
	f := &fleet{}
	var urls []string
	for k := 0; k < 2; k++ {
		dir := filepath.Join(r.work, fmt.Sprintf("%s-stored%d", tag, k))
		p, err := startProc(filepath.Join(r.bin, "stored"), dir+".log", "-dir", dir, "-addr", "127.0.0.1:0")
		if err != nil {
			return nil, errors.Join(err, f.stop())
		}
		f.stored = append(f.stored, p)
		urls = append(urls, p.url)
	}
	d, err := startProc(filepath.Join(r.bin, "experimentd"), filepath.Join(r.work, tag+"-experimentd.log"),
		"-addr", "127.0.0.1:0", "-store", strings.Join(urls, ","))
	if err != nil {
		return nil, errors.Join(err, f.stop())
	}
	f.daemon = d
	return f, nil
}

// stop stops the daemon, then the stores it writes to.
func (f *fleet) stop() error {
	var errs []error
	if f.daemon != nil {
		errs = append(errs, f.daemon.stop())
	}
	for _, p := range f.stored {
		errs = append(errs, p.stop())
	}
	return errors.Join(errs...)
}

// peakRSS is the sum of the fleet's daemons' peak resident sets, in MB.
func (f *fleet) peakRSS() (float64, error) {
	var sum float64
	for _, p := range append([]*proc{f.daemon}, f.stored...) {
		mb, err := vmHWM(strconv.Itoa(p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

// stopFleet stops f and checks that every daemon exited cleanly.
func (r *run) stopFleet(f *fleet, label string) {
	err := f.stop()
	r.check(err == nil, "%s did not shut down cleanly: %v", label, err)
}

// reqOut is one request's outcome.
type reqOut struct {
	status          int
	body            []byte
	err             error
	due, sent, done time.Time
}

func (o reqOut) ok() bool { return o.err == nil && o.status == http.StatusOK }

// drive runs an open-loop phase: each request is sent when it is due on the
// first free one of `workers` connections, so a stall queues later requests
// in the generator, and their latency counts from the due time. A plan
// whose requests are all due at once is a closed loop on `workers`
// connections.
func drive(c *http.Client, target string, plan []planned, tr *Tracer) []reqOut {
	outs := make([]reqOut, len(plan))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(plan) {
					return
				}
				o := &outs[i]
				o.due = start.Add(plan[i].Due)
				time.Sleep(time.Until(o.due))
				body, _ := json.Marshal(plan[i].Unit) // a Unit always marshals
				_ = tr.Do("POST /v1/run", 0, i, func(int) error {
					o.sent = time.Now()
					o.status, o.body, o.err = post(c, target+"/v1/run", body)
					o.done = time.Now()
					return o.err
				}) // the outcome is kept in o
			}
		}()
	}
	wg.Wait()
	return outs
}

func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// phase summarizes one driven phase.
type phase struct {
	name     string
	plan     []planned
	outs     []reqOut
	hits     []bool
	sent, ok int
	fromDue  []float64 // ms, every sent request
	fromSend []float64
	late     []float64
	wall     time.Duration // phase start to last completion
}

func summarize(name string, plan []planned, outs []reqOut) phase {
	p := phase{name: name, plan: plan, outs: outs, hits: classifyHits(plan)}
	if len(outs) == 0 {
		return p
	}
	start := outs[0].due
	for _, o := range outs {
		if o.sent.IsZero() {
			continue
		}
		p.sent++
		if o.ok() {
			p.ok++
		}
		p.fromDue = append(p.fromDue, ms(o.done.Sub(o.due)))
		p.fromSend = append(p.fromSend, ms(o.done.Sub(o.sent)))
		p.late = append(p.late, ms(o.sent.Sub(o.due)))
		p.wall = max(p.wall, o.done.Sub(start))
	}
	return p
}

// latencyOf returns the due-time latencies of the sent requests whose plan
// classification is hit (or miss).
func (p phase) latencyOf(hit bool) []float64 {
	var xs []float64
	for i, o := range p.outs {
		if !o.sent.IsZero() && p.hits[i] == hit {
			xs = append(xs, ms(o.done.Sub(o.due)))
		}
	}
	return xs
}

// daemonStats is experimentd's GET /v1/stats reply.
type daemonStats struct {
	Store     store.Stats `json:"store"`
	Coalesced int64       `json:"coalesced"`
	Rejected  int64       `json:"rejected"`
	Served    int64       `json:"served"`
}

// snapshot is the fleet's counters at one instant: experimentd's stats and
// every latency-histogram sum and count and request total the fleet's
// /v1/metrics expose, summed over the stored replicas.
type snapshot struct {
	d       daemonStats
	metrics map[string]float64
}

func (f *fleet) snapshot(c *http.Client) (snapshot, error) {
	s := snapshot{metrics: make(map[string]float64)}
	resp, err := c.Get(f.daemon.url + "/v1/stats")
	if err != nil {
		return s, err
	}
	err = json.NewDecoder(resp.Body).Decode(&s.d)
	resp.Body.Close()
	if err != nil {
		return s, fmt.Errorf("experimentd /v1/stats: %w", err)
	}
	for _, p := range append([]*proc{f.daemon}, f.stored...) {
		if err := scrapeInto(c, p.url+"/v1/metrics", s.metrics); err != nil {
			return s, err
		}
	}
	return s, nil
}

// scrapeInto adds every request_duration_seconds sum/count and
// requests_total sample of a Prometheus text page into m, keyed by metric
// name and labels.
func scrapeInto(c *http.Client, url string, m map[string]float64) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.Contains(line, "_request_duration_seconds_sum{") &&
			!strings.Contains(line, "_request_duration_seconds_count{") &&
			!strings.Contains(line, "_requests_total{") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return fmt.Errorf("%s: bad sample %q", url, line)
		}
		m[line[:sp]] += v
	}
	return sc.Err()
}

// delta returns after − before for the named sample.
func delta(before, after snapshot, name string) float64 {
	return after.metrics[name] - before.metrics[name]
}

// histMean returns the mean latency in ms over the named endpoints of one
// histogram family between two snapshots.
func histMean(before, after snapshot, family string, endpoints ...string) float64 {
	var sum, count float64
	for _, e := range endpoints {
		sum += delta(before, after, fmt.Sprintf("%s_request_duration_seconds_sum{endpoint=%q}", family, e))
		count += delta(before, after, fmt.Sprintf("%s_request_duration_seconds_count{endpoint=%q}", family, e))
	}
	return div(sum*1000, count)
}

// div is a/b, or 0 when b is 0.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers, DisableCompression: true},
		Timeout:   2 * time.Minute,
	}
}

// expectedBodies computes, in process and off the clock, the exact bytes
// experimentd must answer for each unit: the json.Encoder form of
// session.RunUnit's result on a store-less session.
func expectedBodies(units []session.Unit) (map[session.Unit][]byte, error) {
	s, err := session.Open(session.Config{Prog: "perfbench", Parallel: workers, Diag: io.Discard})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	want := make(map[session.Unit][]byte, len(units))
	err = runner.MapOrdered(runner.New(workers), len(units), func(i int) ([]byte, error) {
		res, err := s.RunUnit(units[i])
		if err != nil {
			return nil, fmt.Errorf("unit %+v: %w", units[i], err)
		}
		var b bytes.Buffer
		err = json.NewEncoder(&b).Encode(res)
		return b.Bytes(), err
	}, func(i int, b []byte) error {
		want[units[i]] = b
		return nil
	})
	return want, err
}

// checkBodies counts every planned request and fails those that were not
// sent, did not answer 200, or whose body differs from the in-process
// result.
func (r *run) checkBodies(phases ...phase) error {
	var units []session.Unit
	seen := make(map[session.Unit]bool)
	for _, p := range phases {
		for _, q := range p.plan {
			if !seen[q.Unit] {
				seen[q.Unit] = true
				units = append(units, q.Unit)
			}
		}
	}
	want, err := expectedBodies(units)
	if err != nil {
		return err
	}
	for _, p := range phases {
		for i, o := range p.outs {
			r.attempted++
			switch {
			case o.sent.IsZero():
				r.fail("request %d (%+v) was never sent", i, p.plan[i].Unit)
			case !o.ok():
				r.fail("request %d (%+v): status %d, err %v, body %.200q", i, p.plan[i].Unit, o.status, o.err, o.body)
			case !bytes.Equal(o.body, want[p.plan[i].Unit]):
				r.fail("request %d (%+v): body %q differs from in-process %q", i, p.plan[i].Unit, o.body, want[p.plan[i].Unit])
			}
		}
	}
	return nil
}

func runServe(r *run) (err error) {
	// Set-up: five fleet start-ups from empty directories; the last one
	// serves the phases.
	var f *fleet
	var setups []float64
	starts := 1
	if !r.trace {
		starts = 5
	}
	for k := 0; k < starts; k++ {
		if f != nil {
			r.stopFleet(f, fmt.Sprintf("fleet %d", k-1))
		}
		start := time.Now()
		if f, err = r.startFleet(fmt.Sprintf("fleet%d", k)); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	stopped := false
	defer func() {
		if !stopped {
			err = errors.Join(err, f.stop())
		}
	}()
	c := newClient()
	defer c.CloseIdleConnections()
	count := func(rate float64, d time.Duration) int { return int(rate * d.Seconds()) }

	var phases []phase
	var tr *Tracer
	var before, after snapshot
	if !r.trace {
		// The end-to-end phases alternate serveRounds open-loop segments
		// at the low rate, which give the latency, with closed-loop bursts
		// of a fixed number of requests of the same population, which give
		// the throughput. The latency is taken at the low rate because at
		// the high rate a few seconds of hypervisor steal queue requests
		// and the due-time p50 of one run doubled. The throughput is
		// closed-loop so that it follows the fleet, not the generator's
		// rate, and comes in bursts across the run so that a few seconds
		// of interference from the host fall on one burst, not on all.
		for k := 0; k < serveRounds; k++ {
			low := servePlan(r.seed, fmt.Sprintf("low-%d", k), 2*k, lowRate, count(lowRate, r.seconds/serveRounds))
			phases = append(phases, summarize("low", low, drive(c, f.daemon.url, low, nil)))
			closed := servePlan(r.seed, fmt.Sprintf("closed-%d", k), 2*k+1, 0, closedCount/serveRounds)
			phases = append(phases, summarize("closed", closed, drive(c, f.daemon.url, closed, nil)))
		}
	} else {
		// 35% of the time at the low rate, 15% at the high rate untraced
		// (the overhead reference) and 50% traced at the high rate, whose
		// p99s need 1000 requests and 1000 misses.
		low := servePlan(r.seed, "low", 0, lowRate, count(lowRate, r.seconds*7/20))
		high := servePlan(r.seed, "high", 1, highRate, count(highRate, r.seconds*3/20))
		traced := servePlan(r.seed, "high-traced", 2, highRate, count(highRate, r.seconds/2))
		phases = append(phases, summarize("low", low, drive(c, f.daemon.url, low, nil)))
		phases = append(phases, summarize("high", high, drive(c, f.daemon.url, high, nil)))
		if before, err = f.snapshot(c); err != nil {
			return err
		}
		tr = newTracer()
		phases = append(phases, summarize("high-traced", traced, drive(c, f.daemon.url, traced, tr)))
		if after, err = f.snapshot(c); err != nil {
			return err
		}
	}
	final, err := f.snapshot(c)
	if err != nil {
		return err
	}
	r.check(final.d.Rejected == 0, "experimentd refused %d requests at admission", final.d.Rejected)
	rss, err := f.peakRSS()
	if err != nil {
		return err
	}
	stopped = true
	r.stopFleet(f, "measured fleet")
	if err := r.checkBodies(phases...); err != nil {
		return err
	}
	for _, p := range phases {
		fmt.Fprintf(os.Stderr, "perfbench: serve phase %s: planned %d, sent %d, ok %d, failed %d, generator late p99 %.2f ms\n",
			p.name, len(p.plan), p.sent, p.ok, len(p.plan)-p.ok, percentile(p.late, 99))
	}

	if !r.trace {
		var lat []float64
		var ok int
		var wall time.Duration
		for _, p := range phases {
			if p.name == "low" {
				lat = append(lat, p.fromDue...)
			} else {
				ok += p.ok
				wall += p.wall
			}
		}
		r.set("setup_s", median(setups))
		r.set("max_rss_mb", rss)
		r.set("ops_per_s", div(float64(ok), wall.Seconds()))
		r.set("op_p50_ms", percentile(lat, 50))
		return nil
	}
	return r.serveLayers(phases, tr, before, after)
}

// serveLayers sets the serve per-layer metrics: latency breakdowns from the
// low and traced phases, fleet counters as deltas across the traced phase,
// and machine figures from re-running the traced phase's miss units in
// process.
func (r *run) serveLayers(phases []phase, tr *Tracer, before, after snapshot) error {
	low, high, traced := phases[0], phases[1], phases[2]
	r.check(qualifies(95, len(low.fromDue)), "low p95 needs %d samples beyond it, have %d samples", minBeyond, len(low.fromDue))
	r.set("serve.low.p50_ms", percentile(low.fromDue, 50))
	r.set("serve.low.p95_ms", percentile(low.fromDue, 95))
	r.check(qualifies(99, len(traced.fromDue)), "p99 needs %d samples beyond it, have %d samples", minBeyond, len(traced.fromDue))
	r.set("op_tail_ms", percentile(traced.fromDue, 99))
	r.set("serve.hit_p50_ms", percentile(traced.latencyOf(true), 50))
	r.set("serve.miss_p50_ms", percentile(traced.latencyOf(false), 50))
	inSLO := 0
	for _, o := range traced.outs {
		if o.ok() && o.done.Sub(o.due) <= sloLimit {
			inSLO++
		}
	}
	r.set("serve.slo_ok_ratio", div(float64(inSLO), float64(len(traced.plan))))
	r.check(qualifies(99, len(traced.late)), "lateness p99 needs %d samples beyond it, have %d samples", minBeyond, len(traced.late))
	r.set("load.late_ms.p99", percentile(traced.late, 99))
	// The traced and untraced high phases send different units, so the
	// overhead compares the median time from send, not queue-sensitive
	// due-time means.
	r.set("trace.overhead_ratio", div(percentile(traced.fromSend, 50), percentile(high.fromSend, 50)))

	planHits, pairs := 0, 0
	for i, h := range traced.hits {
		if h {
			planHits++
		}
		if traced.plan[i].Pair {
			pairs++
		}
	}
	ds := after.d.Store
	ds.Hits -= before.d.Store.Hits
	ds.Misses -= before.d.Store.Misses
	ds.Puts -= before.d.Store.Puts
	r.check(ds.Hits == int64(planHits) && ds.Misses == int64(len(traced.plan)-planHits),
		"store hits/misses %d/%d, plan has %d repeats of %d", ds.Hits, ds.Misses, planHits, len(traced.plan))
	r.set("store.hit_ratio.serve", div(float64(ds.Hits), float64(ds.Hits+ds.Misses)))
	r.set("store.puts.serve", float64(ds.Puts))
	coalesced := after.d.Coalesced - before.d.Coalesced
	r.set("session.coalesced", float64(coalesced))
	r.set("session.coalesce_ratio", div(float64(coalesced), float64(pairs/2)))
	r.set("admission.rejected", float64(after.d.Rejected))
	r.set("remote.get_ms", histMean(before, after, "stored", "get", "mget"))
	r.set("remote.put_ms", histMean(before, after, "stored", "put", "mput"))
	var reqs float64
	for name := range after.metrics {
		if strings.HasPrefix(name, "stored_requests_total{") {
			reqs += delta(before, after, name)
		}
	}
	r.set("remote.requests", reqs)
	handler := histMean(before, after, "experimentd", "run")
	r.set("serve.handler_ms", handler)
	r.set("wire.client_ms", mean(traced.fromSend)-handler)

	// Machine: Σ steps over the miss responses, and runner.Execute re-run
	// in process on each distinct miss unit.
	var steps int
	var misses []session.Unit
	for i, o := range traced.outs {
		if traced.hits[i] || !o.ok() {
			continue
		}
		var res session.UnitResult
		if err := json.Unmarshal(o.body, &res); err != nil {
			return fmt.Errorf("miss response %d: %w", i, err)
		}
		steps += res.Report.Steps
		misses = append(misses, traced.plan[i].Unit)
	}
	r.set("machine.steps", float64(steps))
	var sim []float64
	var simTotal time.Duration
	simSteps := 0
	for i, u := range misses {
		j, err := u.Job()
		if err != nil {
			return err
		}
		var res runner.Result
		d := timeIt(func() {
			_ = tr.Do("runner.Execute", 0, len(traced.plan)+i, func(int) error { res = runner.Execute(j); return res.Err })
		})
		r.check(res.Err == nil, "runner.Execute(%+v): %v", u, res.Err)
		sim = append(sim, ms(d))
		simTotal += d
		simSteps += res.Report.Steps
	}
	r.check(simSteps == steps, "in-process steps %d ≠ served steps %d", simSteps, steps)
	r.set("machine.simulate_ms.p50", percentile(sim, 50))
	r.check(qualifies(99, len(sim)), "simulate p99 needs %d samples beyond it, have %d samples", minBeyond, len(sim))
	r.set("machine.simulate_ms.p99", percentile(sim, 99))
	r.set("machine.ns_per_step", div(float64(simTotal.Nanoseconds()), float64(simSteps)))
	return r.writeTrace(tr)
}
