// Command perfbench is the repository's benchmark. It drives the proof
// pipeline, the experiment suite and the serving daemons through their
// public entry points, checks every output, and prints one JSON result
// line. Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload prove --seed 1 --seconds 25 --trace 0
//
// Workloads:
//
//	prove  closed-loop batch of verified Construct → Encode → Decode pipelines
//	suite  the quick E1–E13 suite, cold over a fresh store, then warm
//	serve  open-loop /v1/run traffic against experimentd on a two-stored fleet
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, taken from spans the benchmark records
// around each call into a layer (see README.md for every definition).
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workers is the worker and connection count every workload uses, fixed so
// that the benchmark does the same work on every machine.
const workers = 2

// secondSeed is the documented re-check seed: a claim tuned on the default
// seed must also hold here.
const secondSeed = 20060723

// unit gives each metric's unit. Names absent here are refused by set.
var unit = map[string]string{}

// endToEnd and perLayer list the metric names in BENCHMARK.json order; a
// test checks that the file and these lists agree.
var endToEnd, perLayer []string

func init() {
	def := func(list *[]string, u string, names ...string) {
		for _, n := range names {
			*list = append(*list, n)
			unit[n] = u
		}
	}
	e := &endToEnd
	def(e, "s", "setup_s")
	def(e, "ratio", "ok_ratio")
	def(e, "MB", "max_rss_mb")
	def(e, "1/s", "ops_per_s")
	def(e, "ms", "op_p50_ms")

	l := &perLayer
	// The tail would be end-to-end, but at this run length it does not
	// repeat within a tenth between runs, so it is reported without a
	// bound.
	def(l, "ms", "op_tail_ms")
	def(l, "s", "construct.s")
	def(l, "ratio", "construct.share")
	def(l, "count", "construct.iterations", "construct.metasteps")
	def(l, "s", "encode.s")
	def(l, "bits", "encode.bits")
	def(l, "s", "decode.s", "verify.s")
	def(l, "ratio", "runner.busy_share")
	def(l, "count", "runner.units")
	for i := 1; i <= 13; i++ {
		def(l, "s", fmt.Sprintf("experiments.E%d_s", i))
	}
	def(l, "s", "suite.warm_s")
	def(l, "count", "store.hits.cold", "store.misses.cold", "store.puts.cold")
	def(l, "ratio", "store.dedup_ratio.cold")
	def(l, "B", "store.blob_bytes.cold")
	def(l, "s", "store.close_s.cold", "store.open_s.warm")
	def(l, "count", "store.misses.warm")
	def(l, "B", "store.disk_bytes")
	def(l, "ratio", "store.hit_ratio.serve")
	def(l, "count", "store.puts.serve")
	def(l, "count", "machine.steps")
	def(l, "ms", "machine.simulate_ms.p50", "machine.simulate_ms.p99")
	def(l, "ns", "machine.ns_per_step")
	def(l, "ms", "remote.get_ms", "remote.put_ms")
	def(l, "count", "remote.requests")
	def(l, "ms", "serve.handler_ms", "wire.client_ms")
	def(l, "count", "session.coalesced")
	def(l, "ratio", "session.coalesce_ratio")
	def(l, "count", "admission.rejected")
	def(l, "ms", "serve.low.p50_ms", "serve.low.p95_ms", "serve.hit_p50_ms", "serve.miss_p50_ms")
	def(l, "ratio", "serve.slo_ok_ratio")
	def(l, "ms", "load.late_ms.p99")
	def(l, "ratio", "trace.overhead_ratio")
}

// run is one benchmark invocation's context and findings.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	bin      string // directory holding the stored and experimentd binaries
	work     string // scratch directory for stores and span files

	attempted, failed int
	problems          []string
	values            map[string]float64
}

// set records a metric value.
func (r *run) set(name string, v float64) {
	if _, ok := unit[name]; !ok {
		panic("perfbench: undeclared metric " + name)
	}
	r.values[name] = v
}

// fail records one failed operation or check.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// check counts one attempted check and records it as failed when cond is
// false.
func (r *run) check(cond bool, format string, args ...any) {
	r.attempted++
	if !cond {
		r.fail(format, args...)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

var workloads = map[string]func(*run) error{
	"prove": runProve,
	"suite": runSuite,
	"serve": runServe,
}

func main() {
	code, err := mainErr(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func mainErr(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "prove, suite or serve")
		seed     = fs.Int64("seed", 1, "workload seed; every input is generated from it")
		seconds  = fs.Int("seconds", 25, "measuring time of one run")
		trace    = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		bin      = fs.String("bin", "", "directory with the stored and experimentd binaries")
		work     = fs.String("work", ".bench_build/work", "scratch directory")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	fn, ok := workloads[*workload]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q (want prove, suite or serve)", *workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return 2, fmt.Errorf("need --seconds ≥ 1 and --trace 0 or 1")
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		return 1, err
	}
	dir, err := os.MkdirTemp(*work, *workload+"-")
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(dir)
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		bin:      *bin,
		work:     dir,
		values:   make(map[string]float64),
	}
	prov := provenance(r)
	stealBefore, stealErr := cpuSteal()
	if err := fn(r); err != nil {
		return 1, err
	}
	// The share of this machine's CPU time its hypervisor gave to others
	// during the run: a result taken under heavy steal is not comparable.
	if stealAfter, err := cpuSteal(); err == nil && stealErr == nil {
		prov["steal_share"] = div(stealAfter[0]-stealBefore[0], stealAfter[1]-stealBefore[1])
	}
	if r.attempted < 1 {
		return 1, errors.New("no operation was attempted")
	}
	if !r.trace {
		r.set("ok_ratio", float64(r.attempted-r.failed)/float64(r.attempted))
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	names := endToEnd
	if r.trace {
		names = perLayer
	}
	for _, n := range names {
		res.Metrics[n] = metricValue{Value: r.values[n], Unit: unit[n]}
	}
	if err := json.NewEncoder(stdout).Encode(map[string]any{"provenance": prov}); err != nil {
		return 1, err
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		return 1, err
	}
	if !res.Correct {
		return 1, fmt.Errorf("%d of %d operations or checks failed", r.failed, r.attempted)
	}
	return 0, nil
}

// provenance describes where and on what a result was measured.
func provenance(r *run) map[string]any {
	p := map[string]any{
		"workload":      r.workload,
		"seed":          r.seed,
		"second_seed":   secondSeed,
		"seconds":       r.seconds.Seconds(),
		"trace":         r.trace,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"workers":       workers,
		"go":            runtime.Version(),
		"commit":        gitCommit(),
		"source_sha256": sourceDigest("."),
	}
	if r.workload == "serve" {
		p["serve_rates_per_s"] = map[string]float64{"low": lowRate, "high": highRate}
		p["slo_limit_ms"] = sloLimit.Seconds() * 1000
	}
	return p
}

// gitCommit returns HEAD's hash when the working directory is the top of a
// git checkout, and "none" otherwise.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--show-toplevel", "HEAD").Output()
	wd, werr := os.Getwd()
	lines := strings.Fields(string(out))
	if err != nil || werr != nil || len(lines) != 2 || filepath.Clean(lines[0]) != wd {
		return "none"
	}
	return lines[1]
}

// sourceDigest hashes every Go source and module file under root (build
// output excluded), so a result names the code it measured even where no
// git metadata exists.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only leaves the provenance hash out of it
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// vmHWM returns the peak resident set of a process in MB, read from
// /proc/<pid>/status ("self" for this process).
func vmHWM(pid string) (float64, error) { return procStatusMB(pid, "VmHWM:") }

// procStatusMB returns a kB field of /proc/<pid>/status in MB.
func procStatusMB(pid, field string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == field {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%s/status", field, pid)
}

// sampleRSS reads this process's resident set every 50 ms until the
// returned stop function is called; stop waits for the sampler to end and
// returns its samples in MB.
func sampleRSS() (stop func() []float64) {
	done := make(chan struct{})
	out := make(chan []float64)
	go func() {
		var xs []float64
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				out <- xs
				return
			case <-t.C:
				if mb, err := procStatusMB("self", "VmRSS:"); err == nil {
					xs = append(xs, mb)
				}
			}
		}
	}()
	return func() []float64 {
		close(done)
		return <-out
	}
}

// cpuSteal returns the machine's cumulative steal and total CPU ticks from
// the first line of /proc/stat.
func cpuSteal() ([2]float64, error) {
	var out [2]float64
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return out, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return out, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return out, fmt.Errorf("/proc/stat field %q: %w", f, err)
		}
		if i == 7 { // user nice system idle iowait irq softirq steal …
			out[0] = v
		}
		out[1] += v
	}
	return out, nil
}

// freshHeap collects the heap, returns the freed memory to the OS and
// resets this process's VmHWM to the resident set that remains, so that the
// next measurement neither pays for nor peaks on its predecessor's garbage,
// and a later vmHWM("self") reads the peak since this call.
func freshHeap() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// timeIt returns how long fn took.
func timeIt(fn func()) time.Duration {
	t := time.Now()
	fn()
	return time.Since(t)
}

// writeTrace writes the tracer's spans next to the scratch directory, in
// the work root, so they outlive the run's own scratch space.
func (r *run) writeTrace(tr *Tracer) error {
	path := filepath.Join(filepath.Dir(r.work), fmt.Sprintf("spans-%s-%d.jsonl", r.workload, r.seed))
	return tr.WriteFile(path, map[string]any{"provenance": provenance(r)})
}
