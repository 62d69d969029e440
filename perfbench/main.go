// Command perfbench is the end-to-end benchmark of the powerd
// estimation service. It runs one closed-loop workload against a live
// in-process powerd.Server over loopback HTTP, checks a seeded sample of
// the answers against independent recomputations, and prints every
// metric by name and unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
// runs the workload untraced for half the time, then replays the same
// seeded requests through each layer's public functions for the other
// half and reports per-layer metrics from the spans and from the
// server's /v1/stats counters. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"hlpower/internal/powerd"
	"hlpower/internal/service"
)

// setupRounds is how many times a run builds a server and answers the
// warm-up requests; setup_s is the median.
const setupRounds = 21

func main() {
	name := flag.String("workload", "", "workload: sim-small, sim-large, mixed-repeat, optimize-jobs, or all")
	seed := flag.Int64("seed", 1, "request stream seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for stats snapshots and span files")
	flag.Parse()
	ws := workloads
	var err error
	if *name != "all" {
		var w *workload
		w, err = workloadByName(*name)
		ws = []*workload{w}
	}
	if err == nil && (*seconds < 1 || *trace < 0 || *trace > 1) {
		err = errors.New("--seconds must be positive and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	d := time.Duration(*seconds) * time.Second
	// With --workload all, every workload's table is printed and the
	// final JSON line carries all of them, named "<workload>/<metric>".
	all := newReport()
	for _, w := range ws {
		var r *report
		if *trace == 0 {
			r, err = runEndToEnd(w, *seed, d, *out)
		} else {
			r, err = runTraced(w, *seed, d, *out)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		r.printTable(os.Stdout)
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for m, v := range r.Metrics {
			if len(ws) > 1 {
				m = w.name + "/" + m
			}
			all.Metrics[m] = v
		}
	}
	all.printJSON(os.Stdout)
	if !all.Correct {
		os.Exit(1)
	}
}

// metric is one reported value. The JSON form is what the last output
// line carries; n and note only appear in the human-readable lines.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
	note  string
}

type report struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]*metric `json:"metrics"`
	order     []string
	lines     []string // context printed before the metrics
}

func newReport() *report { return &report{Correct: true, Metrics: map[string]*metric{}} }

func (r *report) add(name string, v float64, unit string, n int, note string) {
	r.Metrics[name] = &metric{Value: v, Unit: unit, n: n, note: note}
	r.order = append(r.order, name)
}

func (r *report) logf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) printTable(f *os.File) {
	for _, l := range r.lines {
		fmt.Fprintln(f, l)
	}
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(f, "%-28s %16.6g %-6s n=%d %s\n", name, m.Value, m.Unit, m.n, m.note)
	}
}

func (r *report) printJSON(f *os.File) {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // only numbers, strings and bools
	}
	fmt.Fprintln(f, string(b))
}

func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// setupMedian builds a server setupRounds times and keeps the last one
// serving. hook, when set, sees every warm-up answer of the kept server.
func setupMedian(w *workload, hook func(*op, []byte) error) (*live, float64, error) {
	var times []float64
	for i := 1; ; i++ {
		var h func(*op, []byte) error
		if i == setupRounds {
			h = hook
		}
		l, d, err := setup(w, h)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, d.Seconds())
		if i == setupRounds {
			return l, quantile(times, 0.5), nil
		}
		if err := l.stop(); err != nil {
			return nil, 0, err
		}
	}
}

// measured is one closed-loop phase together with the server counters
// around it.
type measured struct {
	*phaseResult
	before, after powerd.Stats
}

func measure(l *live, w *workload, seed int64, d time.Duration, tr *replayEnv) (*measured, error) {
	before, err := l.stats()
	if err != nil {
		return nil, err
	}
	res := runLoad(l, w, seed, d, tr)
	after, err := l.stats()
	if err != nil {
		return nil, err
	}
	return &measured{res, before, after}, nil
}

func (m *measured) ok() int { return m.attempted - m.failed }

func (m *measured) opsPerS() float64 { return float64(m.ok()) / m.elapsed.Seconds() }

// gate runs the correctness checks common to both modes: the sampled
// answers and the artifact count. It returns how many ops were wrong.
func gate(r *report, w *workload, ms ...*measured) (int, error) {
	chk := newChecker()
	wrong := 0
	for _, m := range ms {
		wrong += chk.check(m.samples)
		if got := m.after.Kernel.ArtifactBuilds; got != int64(len(w.shapes)) {
			chk.failf("service.artifact_builds = %d, want one per shape (%d)", got, len(w.shapes))
			r.Correct = false
		}
		for _, e := range m.errs {
			r.logf("failed op: %s", e)
		}
	}
	kinds := make([]string, 0, len(chk.checked))
	for k, n := range chk.checked {
		kinds = append(kinds, fmt.Sprintf("%s=%d", k, n))
	}
	sort.Strings(kinds)
	r.logf("correctness: checked %s (%d replayed from the memo), %d wrong", strings.Join(kinds, " "), chk.cached, wrong)
	for _, f := range chk.failures {
		r.logf("MISMATCH %s", f)
	}
	if wrong > 0 {
		r.Correct = false
	}
	return wrong, chk.close()
}

func saveStats(out, name string, st powerd.Stats) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(out, name), b, 0o644)
}

func runEndToEnd(w *workload, seed int64, d time.Duration, out string) (*report, error) {
	r := newReport()
	l, setupS, err := setupMedian(w, nil)
	if err != nil {
		return nil, err
	}
	m, err := measure(l, w, seed, d, nil)
	if err := errors.Join(err, l.stop()); err != nil {
		return nil, err
	}
	if err := saveStats(out, fmt.Sprintf("stats-%s-seed%d.json", w.name, seed), m.after); err != nil {
		return nil, err
	}
	r.logf("workload %s: %d closed-loop clients, seed %d, %.2fs measured, GOMAXPROCS %d",
		w.name, w.clients, seed, m.elapsed.Seconds(), runtime.GOMAXPROCS(0))
	r.logf("why: %s", w.why)
	wrong, err := gate(r, w, m)
	if err != nil {
		return nil, err
	}
	r.Attempted, r.Failed = m.attempted, m.failed+wrong
	ok := float64(m.ok())
	n := len(m.lat)
	if n == 0 {
		return nil, fmt.Errorf("no op succeeded: %v", m.errs)
	}
	r.logf("fail_ratio %.6g (%d of %d ops failed)", float64(r.Failed)/float64(r.Attempted), r.Failed, r.Attempted)
	r.add("setup_s", setupS, "s", setupRounds, "median set-up: server, listener, /readyz, first request per shape")
	ws := m.windowed(d)
	var rates, p50s, cpus []float64
	for _, w := range ws {
		rates = append(rates, float64(len(w.lat))/w.secs)
		if len(w.lat) > 0 {
			p50s = append(p50s, quantile(w.lat, 0.5))
			cpus = append(cpus, w.cpu.Seconds()*1e3/float64(len(w.lat)))
		}
	}
	perWindow := fmt.Sprintf("median of %d %.3gs windows", windows, ws[0].secs)
	r.logf("ops_per_s by window: %.4g", rates)
	r.add("ops_per_s", quantile(rates, 0.5), "1/s", m.ok(), perWindow)
	r.add("p50_ms", quantile(p50s, 0.5), "ms", n, perWindow)
	if groups := tailWindows(ws); groups == nil {
		r.logf("p99_ms: run too short, %d samples leave fewer than ten beyond p99", n)
	} else {
		var p99s []float64
		for _, g := range groups {
			p99s = append(p99s, quantile(g, 0.99))
		}
		r.add("p99_ms", quantile(p99s, 0.5), "ms", n,
			fmt.Sprintf("median of %d windows of at least %d ops", len(groups), tailSamples))
	}
	r.add("allocs_per_op", float64(m.mallocs)/ok, "count", m.ok(), "process-wide mallocs, client included")
	r.add("cpu_ms_per_op", quantile(cpus, 0.5), "ms", m.ok(), "getrusage user+system, "+perWindow)
	heapNote := fmt.Sprintf("highest heap in use over the first %d ops, sampled every 5 ms", w.heapOps)
	if m.heapOps < int64(w.heapOps) {
		heapNote = fmt.Sprintf("highest heap in use, sampled every 5 ms; the run ended after %d of the %d ops it should cover", m.heapOps, w.heapOps)
	}
	r.add("peak_heap_mb", float64(m.peakHeap)/(1<<20), "MB", int(m.heapOps), heapNote)
	return r, nil
}

// tailSamples is the fewest ops a window needs for its p99 to have ten
// samples beyond it.
const tailSamples = 1000

// tailWindows merges consecutive windows into groups of at least
// tailSamples latencies each; a short remainder joins the last group.
// It returns nil when the whole phase holds fewer than tailSamples.
func tailWindows(ws []window) [][]float64 {
	var groups [][]float64
	var cur []float64
	for _, w := range ws {
		cur = append(cur, w.lat...)
		if len(cur) >= tailSamples {
			groups = append(groups, cur)
			cur = nil
		}
	}
	if len(groups) == 0 {
		return nil
	}
	last := len(groups) - 1
	groups[last] = append(groups[last], cur...)
	return groups
}

// statsDelta is the change of the server's counters over one phase.
type statsDelta struct{ b, a powerd.Stats }

func (s statsDelta) memoHitRatio() float64 {
	served := (s.a.Memo.Hits - s.b.Memo.Hits) + (s.a.Memo.Collapsed - s.b.Memo.Collapsed)
	total := served + s.a.Memo.Misses - s.b.Memo.Misses
	if total == 0 {
		return 0
	}
	return float64(served) / float64(total)
}

func runTraced(w *workload, seed int64, d time.Duration, out string) (*report, error) {
	r := newReport()
	half := d / 2

	// Phase A: untraced, for the overhead baseline and the counters.
	l, _, err := setupMedian(w, nil)
	if err != nil {
		return nil, err
	}
	ma, err := measure(l, w, seed, half, nil)
	if err := errors.Join(err, l.stop()); err != nil {
		return nil, err
	}
	if err := saveStats(out, fmt.Sprintf("stats-%s-seed%d.json", w.name, seed), ma.after); err != nil {
		return nil, err
	}

	// Phase B: a fresh server and a fresh replay environment, fed the
	// same warm-up and the same seeded request streams.
	env := newReplayEnv(w.clients)
	warm := &spanLog{epoch: time.Now()} // warm-up spans are not reported
	l, _, err = setupMedian(w, func(o *op, body []byte) error {
		p, err := parseReply(o.kind, body)
		if err != nil {
			return err
		}
		return env.replay(warm, 0, o, p, 0)
	})
	if err != nil {
		return nil, errors.Join(err, env.close())
	}
	mb, err := measure(l, w, seed, half, env)
	if err := errors.Join(err, l.stop(), env.close()); err != nil {
		return nil, err
	}
	env.bddProbe(w)
	spans := env.allSpans()
	if err := writeSpans(filepath.Join(out, "spans-"+w.name+".jsonl"), spans); err != nil {
		return nil, err
	}

	r.logf("workload %s traced: %d clients, seed %d, untraced %.2fs then traced %.2fs, %d spans",
		w.name, w.clients, seed, ma.elapsed.Seconds(), mb.elapsed.Seconds(), len(spans))
	wrong, err := gate(r, w, ma, mb)
	if err != nil {
		return nil, err
	}
	r.Attempted = ma.attempted + mb.attempted
	r.Failed = ma.failed + mb.failed + wrong
	layerMetrics(r, w, ma, mb, summarize(spans), spans)
	return r, nil
}

func layerMetrics(r *report, w *workload, ma, mb *measured, ls layerStats, spans []span) {
	med := func(xs []float64) (float64, int) { return medianOr0(xs), len(xs) }
	durUS := func(name string) (float64, int) { return med(ls.dur[name]) }
	selfUS := func(name string) (float64, int) { return med(ls.self[name]) }
	st := statsDelta{ma.before, ma.after}
	ok := float64(ma.ok())

	v, n := durUS("powerd.rtt")
	r.add("powerd.rtt_us", v, "us", n, "client round trip, traced phase")
	self, n := selfUS("powerd.rtt")
	r.add("powerd.self_us", self, "us", n, "round trip minus replayed layers")
	v, n = durUS("powerd.decode")
	r.add("powerd.decode_us", v, "us", n, "")
	v, n = durUS("powerd.encode")
	r.add("powerd.encode_us", v, "us", n, "")
	r.add("powerd.rejected", float64(st.a.Rejected-st.b.Rejected), "count", 0, "/v1/stats, untraced phase")
	r.add("powerd.shed", float64(st.a.Shed-st.b.Shed), "count", 0, "/v1/stats, untraced phase")
	v, n = selfUS("resilience.execute")
	r.add("resilience.execute_us", v, "us", n, "retry, breaker, SafeValue and budget.New around the call")
	v, n = durUS("memo.key")
	r.add("memo.key_us", v, "us", n, "")
	v, n = durUS("memo.hit")
	r.add("memo.hit_us", v, "us", n, "")
	v, n = selfUS("memo.miss")
	r.add("memo.miss_us", v, "us", n, "lookup and store around the computation")
	r.add("memo.hit_ratio", st.memoHitRatio(), "ratio", 0,
		fmt.Sprintf("/v1/stats, untraced phase; planned %d of %d lookups", ma.plannedHits, ma.plannedLookups))
	r.add("memo.evictions", float64(st.a.Memo.Evictions-st.b.Memo.Evictions), "count", 0, "/v1/stats")
	v, n = selfUS("service.simulate")
	r.add("service.simulate_self_us", v, "us", n, "Local.Simulate minus streams and Compiled.Run")
	v, n = durUS("service.streams")
	r.add("service.streams_us", v, "us", n, "")
	v, n = durUS("service.rank")
	r.add("service.rank_us", v, "us", n, "")
	v, n = durUS("service.predict")
	r.add("service.predict_us", v, "us", n, "")
	v, n = durUS("service.bdd")
	r.add("service.bdd_us", v, "us", n, "Local.BDD on each warmed function; served BDD requests are memo hits")
	v, n = durUS("service.batch_item")
	r.add("service.batch_item_us", v, "us", n, "")
	r.add("service.artifact_builds", float64(st.a.Kernel.ArtifactBuilds), "count", 0,
		fmt.Sprintf("/v1/stats; %d distinct shapes", len(w.shapes)))
	r.add("service.tier.fused", float64(st.a.Kernel.Tiers["fused"]-st.b.Kernel.Tiers["fused"]), "count", 0, "/v1/stats, untraced phase")
	r.add("service.tier.codegen", float64(st.a.Kernel.Tiers["codegen"]-st.b.Kernel.Tiers["codegen"]), "count", 0, "/v1/stats, untraced phase")
	r.add("service.scratch_hit_rate", st.a.Kernel.ScratchHitRate, "ratio", 0, "/v1/stats")

	v, n = durUS("sim.run")
	r.add("sim.run_us", v, "us", n, "Compiled.Run as served")
	v, n = durUS("sim.run_w1")
	r.add("sim.run_w1_us", v, "us", n, "Compiled.Run with Workers: 1")
	v, n = med(ls.value["sim.run"])
	r.add("sim.shards", v, "count", n, "")
	allocs, an := simAllocs(w)
	r.add("sim.allocs_per_run", allocs, "count", an, "single-goroutine runs after the traced phase")
	var compileMS []float64
	for _, c := range ls.dur["sim.compile"] {
		compileMS = append(compileMS, c/1e3)
	}
	v, n = med(compileMS)
	r.add("sim.compile_ms", v, "ms", n, "")
	evals, runUS := sum(ls.value["sim.run_w1"]), sum(ls.dur["sim.run_w1"])
	rate := 0.0
	if runUS > 0 {
		rate = evals / (runUS / 1e6)
	}
	r.add("sim.gate_evals_per_s", rate, "1/s", len(ls.dur["sim.run_w1"]), "gates x cycles over Workers: 1 run time")

	var jobMS, candUS, overMS []float64
	for _, s := range spans {
		if s.Name != "jobs.job" || s.Parent < 0 {
			continue
		}
		jobMS = append(jobMS, s.dur()/1e6)
		if s.Value > 0 {
			candUS = append(candUS, s.dur()/1e3/s.Value)
		}
		overMS = append(overMS, (spans[s.Parent].dur()-s.dur())/1e6)
	}
	v, n = med(jobMS)
	r.add("jobs.job_ms", v, "ms", n, "library Manager.Submit to Done")
	v, n = med(candUS)
	r.add("jobs.cand_us", v, "us", n, "")
	v, n = med(overMS)
	r.add("jobs.http_overhead_ms", v, "ms", n, "HTTP job time minus library job time")
	cpj := 0.0
	if done := st.a.Jobs.Completed - st.b.Jobs.Completed; done > 0 {
		cpj = float64(st.a.Jobs.Checkpointed-st.b.Jobs.Checkpointed) / float64(done)
	}
	r.add("jobs.checkpoints_per_job", cpj, "count", 0, "/v1/stats")

	r.add("runtime.gc_per_kop", float64(ma.gcs)/ok*1e3, "count", int(ma.gcs), "untraced phase")
	pause := 0.0
	if ma.gcs > 0 {
		pause = ma.gcPause.Seconds() * 1e3 / float64(ma.gcs)
	}
	r.add("runtime.gc_pause_ms", pause, "ms", int(ma.gcs), "mean stop-the-world pause per GC")
	v, n = med(ma.clientUS)
	r.add("bench.client_us", v, "us", n, "generator marshal and parse per op")

	r.add("trace.untraced_ops_per_s", ma.opsPerS(), "1/s", ma.ok(), "")
	r.add("trace.traced_ops_per_s", mb.opsPerS(), "1/s", mb.ok(), "")
	r.add("trace.overhead_ops_per_s", mb.opsPerS()-ma.opsPerS(), "1/s", 0, "traced minus untraced")
	neg := 0.0
	if self < 0 {
		neg = 1
		r.logf("FLAG %s: powerd.self_us is negative (%.3g us): the replay disagrees with the live server", w.name, self)
	}
	r.add("trace.self_negative", neg, "count", 0, "")
}

// simAllocs measures heap allocations per Compiled.Run for the
// workload's first shape at its warm-up size, on one goroutine while
// nothing else runs.
func simAllocs(w *workload) (float64, int) {
	if len(w.shapes) == 0 {
		return 0, 0
	}
	mod, comp, err := compileShape(w.shapes[0])
	if err != nil {
		return 0, 0
	}
	cycles := w.warmCycles
	as, bs := service.OperandStreams(cycles, mod.Width(), 1)
	prov := func(c int) []bool { return mod.InputVector(as[c], bs[c]) }
	opts := serveOptions(mod, as, bs)
	const runs = 20
	for i := 0; i < 3; i++ {
		_, _ = comp.Run(nil, prov, cycles, opts)
	}
	m0 := readRuntime()
	for i := 0; i < runs; i++ {
		_, _ = comp.Run(nil, prov, cycles, opts)
	}
	m1 := readRuntime()
	return float64(m1.mallocs-m0.mallocs) / runs, runs
}
