package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hlpower/internal/jobs"
	"hlpower/internal/powerd"
	"hlpower/internal/service"
)

// pollInterval spaces GET /v1/jobs/{id} polls. Optimize jobs take over
// ten milliseconds, so the poll wait stays a few percent of an op.
const pollInterval = time.Millisecond

// live is one in-process powerd.Server behind a loopback listener.
type live struct {
	srv    *powerd.Server
	hs     *http.Server
	base   string
	client *http.Client
	done   chan struct{}
}

func serverConfig() powerd.Config { return powerd.DefaultConfig() }

// startServer builds a server with default settings and serves it on a
// fresh loopback port. conns bounds the client's connections.
func startServer(conns int) (*live, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &live{
		srv:  powerd.NewServer(serverConfig()),
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
	l.hs = &http.Server{Handler: l.srv.Handler()}
	go func() {
		defer close(l.done)
		_ = l.hs.Serve(ln) // returns http.ErrServerClosed after stop
	}()
	return l, nil
}

// stop drains the server and waits for its serving goroutine to exit.
func (l *live) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	derr := l.srv.Drain(ctx)
	serr := l.hs.Shutdown(ctx)
	<-l.done
	l.client.CloseIdleConnections()
	return errors.Join(derr, serr)
}

// get fetches a path and decodes the JSON answer into v.
func (l *live) get(path string, v any) (int, error) {
	resp, err := l.client.Get(l.base + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if v != nil && resp.StatusCode/100 == 2 {
		err = json.Unmarshal(body, v)
	}
	return resp.StatusCode, err
}

func (l *live) post(path string, body []byte) (int, []byte, error) {
	resp, err := l.client.Post(l.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

func (l *live) waitReady() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, err := l.get("/readyz", nil)
		if err == nil && code == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready: status %d, %v", code, err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (l *live) stats() (powerd.Stats, error) {
	var st powerd.Stats
	code, err := l.get("/v1/stats", &st)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("stats: status %d", code)
	}
	return st, err
}

// reply is one op's outcome as the client saw it.
type reply struct {
	status int
	body   []byte // final response body (a finished job's status)
	err    error
}

func (r reply) ok() bool { return r.err == nil && r.status/100 == 2 }

// exchange sends one op and, for optimize, polls its job to a terminal
// phase. The returned duration is the client-observed round trip.
func (l *live) exchange(o *op) (reply, time.Duration) {
	t0 := time.Now()
	code, body, err := l.post(endpoints[o.kind], o.body)
	if o.kind != kindOptimize || err != nil || code != http.StatusAccepted {
		return reply{code, body, err}, time.Since(t0)
	}
	var st jobs.Status
	if err := json.Unmarshal(body, &st); err != nil {
		return reply{code, body, err}, time.Since(t0)
	}
	for st.Phase == "queued" || st.Phase == "running" {
		time.Sleep(pollInterval)
		resp, err := l.client.Get(l.base + "/v1/jobs/" + st.ID)
		if err != nil {
			return reply{0, nil, err}, time.Since(t0)
		}
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		code = resp.StatusCode
		if err != nil || code != http.StatusOK {
			return reply{code, body, err}, time.Since(t0)
		}
		st = jobs.Status{}
		if err := json.Unmarshal(body, &st); err != nil {
			return reply{code, body, err}, time.Since(t0)
		}
	}
	if st.Phase != "done" {
		err = fmt.Errorf("job %s ended %s: %s", st.ID, st.Phase, st.Err)
	}
	return reply{code, body, err}, time.Since(t0)
}

// parsed is a decoded 2xx answer.
type parsed struct {
	sim   *service.SimulateResponse
	rank  *service.RankResponse
	pred  *service.PredictResponse
	bdd   *service.BDDResponse
	batch *service.BatchResponse
	job   *jobs.Status
}

// cached reports whether the whole answer was replayed from the memo.
func (p parsed) cached() bool {
	switch {
	case p.sim != nil:
		return p.sim.Cached
	case p.rank != nil:
		return p.rank.Cached
	case p.pred != nil:
		return p.pred.Cached
	case p.bdd != nil:
		return p.bdd.Cached
	case p.batch != nil:
		return p.batch.Cached == len(p.batch.Items)
	}
	return false
}

func parseReply(kind string, body []byte) (parsed, error) {
	var p parsed
	var v any
	switch kind {
	case kindSimulate:
		p.sim = new(service.SimulateResponse)
		v = p.sim
	case kindRank:
		p.rank = new(service.RankResponse)
		v = p.rank
	case kindPredict:
		p.pred = new(service.PredictResponse)
		v = p.pred
	case kindBDD:
		p.bdd = new(service.BDDResponse)
		v = p.bdd
	case kindBatch:
		p.batch = new(service.BatchResponse)
		v = p.batch
	case kindOptimize:
		p.job = new(jobs.Status)
		v = p.job
	}
	if err := json.Unmarshal(body, v); err != nil {
		return p, fmt.Errorf("parse %s reply: %w", kind, err)
	}
	return p, nil
}

// sample is one checked (request, answer) pair.
type sample struct {
	o *op
	p parsed
}

// reservoir keeps a seeded uniform sample of a client's answers, at
// most max per request kind.
type reservoir struct {
	max  int
	seen map[string]int
	keep map[string][]sample
	rng  *rand.Rand
}

func newReservoir(max int, seed int64, client int) *reservoir {
	return &reservoir{max: max, seen: map[string]int{}, keep: map[string][]sample{},
		rng: rand.New(rand.NewSource(seed*31 + int64(client)))}
}

func (r *reservoir) add(s sample) {
	k := s.o.kind
	n := r.seen[k]
	r.seen[k] = n + 1
	if n < r.max {
		r.keep[k] = append(r.keep[k], s)
		return
	}
	if j := r.rng.Intn(n + 1); j < r.max {
		r.keep[k][j] = s
	}
}

// phaseResult is what one closed-loop phase measured.
type phaseResult struct {
	attempted, failed int
	lat               []float64 // successful op latencies, ms
	at                []float64 // their completion times, seconds into the phase
	windowCPU         []time.Duration
	clientUS          []float64 // generator marshal+parse per op, µs
	elapsed           time.Duration
	mallocs           uint64
	gcs               uint64
	gcPause           time.Duration
	peakHeap          uint64
	heapOps           int64 // ops done when peakHeap stopped following the heap
	samples           []sample
	plannedLookups    int
	plannedHits       int
	errs              []string
}

// runLoad runs the workload's clients in a closed loop until the
// deadline, each on its own generator stream. Tracing, when non-nil,
// replays every op through the library layers after its round trip.
func runLoad(l *live, w *workload, seed int64, d time.Duration, tr *replayEnv) *phaseResult {
	res := &phaseResult{}
	var served atomic.Int64
	stopSampler := sampleHeap(&res.peakHeap, &served, int64(w.heapOps))
	m0 := readRuntime()
	start := time.Now()
	deadline := start.Add(d)
	waitWindows := sampleWindows(start, d, &res.windowCPU)

	type clientOut struct {
		attempted, failed int
		lat, at, clientUS []float64
		res               *reservoir
		lookups, hits     int
		errs              []string
	}
	outs := make([]clientOut, w.clients)
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &outs[c]
			out.res = newReservoir(w.checks, seed, c)
			g := newGenerator(w, seed, c)
			fail := func(err error) {
				out.failed++
				if len(out.errs) < 5 {
					out.errs = append(out.errs, err.Error())
				}
			}
			for time.Now().Before(deadline) {
				tg := time.Now()
				o := g.next()
				gen := time.Since(tg)
				out.attempted++
				out.lookups += o.lookups
				out.hits += o.hits
				var rid int64
				if tr != nil {
					rid = tr.newRequest()
				}
				rep, rtt := l.exchange(o)
				if !rep.ok() {
					fail(fmt.Errorf("%s: status %d: %v: %.200s", o.kind, rep.status, rep.err, rep.body))
					continue
				}
				tp := time.Now()
				p, err := parseReply(o.kind, rep.body)
				gen += time.Since(tp)
				if err != nil {
					fail(err)
					continue
				}
				done := time.Since(start)
				if tr != nil {
					if err := tr.replay(tr.logs[c], rid, o, p, rtt); err != nil {
						fail(err)
						continue
					}
				}
				served.Add(1)
				out.lat = append(out.lat, float64(rtt.Nanoseconds())/1e6)
				out.at = append(out.at, done.Seconds())
				out.clientUS = append(out.clientUS, float64(gen.Nanoseconds())/1e3)
				out.res.add(sample{o, p})
			}
		}(c)
	}
	wg.Wait()
	waitWindows()
	res.elapsed = time.Since(start)
	m1 := readRuntime()
	res.heapOps = stopSampler()
	res.mallocs = m1.mallocs - m0.mallocs
	res.gcs = m1.gcs - m0.gcs
	res.gcPause = m1.pause - m0.pause
	for _, o := range outs {
		res.attempted += o.attempted
		res.failed += o.failed
		res.lat = append(res.lat, o.lat...)
		res.at = append(res.at, o.at...)
		res.clientUS = append(res.clientUS, o.clientUS...)
		res.plannedLookups += o.lookups
		res.plannedHits += o.hits
		res.errs = append(res.errs, o.errs...)
		kinds := make([]string, 0, len(o.res.keep))
		for k := range o.res.keep {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			res.samples = append(res.samples, o.res.keep[k]...)
		}
	}
	return res
}

// setup builds a server, serves it, waits for /readyz and answers the
// workload's warm-up requests: one per netlist shape and BDD function,
// so lazy artifact compiles are paid here. hook, when set, sees each
// warm-up answer after set-up time is taken.
func setup(w *workload, hook func(*op, []byte) error) (*live, time.Duration, error) {
	t0 := time.Now()
	l, err := startServer(w.clients)
	if err != nil {
		return nil, 0, err
	}
	if err := l.waitReady(); err != nil {
		return nil, 0, errors.Join(err, l.stop())
	}
	ops := w.warmOps()
	bodies := make([][]byte, len(ops))
	for i, o := range ops {
		rep, _ := l.exchange(o)
		if !rep.ok() {
			err := fmt.Errorf("warm-up %s: status %d: %v: %.200s", o.kind, rep.status, rep.err, rep.body)
			return nil, 0, errors.Join(err, l.stop())
		}
		bodies[i] = rep.body
	}
	d := time.Since(t0)
	if hook != nil {
		for i, o := range ops {
			if err := hook(o, bodies[i]); err != nil {
				return nil, 0, errors.Join(err, l.stop())
			}
		}
	}
	return l, d, nil
}

type runtimeCounters struct {
	mallocs, gcs uint64
	pause        time.Duration
}

func readRuntime() runtimeCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeCounters{mallocs: ms.Mallocs, gcs: uint64(ms.NumGC), pause: time.Duration(ms.PauseTotalNs)}
}

// sampleHeap records the highest live heap seen every 5 ms until done
// reaches limit ops or the returned stop function is called. stop waits
// for the sampler to exit and returns the op count the peak covers.
func sampleHeap(peak *uint64, done *atomic.Int64, limit int64) (stop func() int64) {
	quit := make(chan struct{})
	exited := make(chan struct{})
	var covered int64
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() bool {
		if covered = min(done.Load(), limit); covered == limit {
			return false
		}
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > *peak {
			*peak = v
		}
		return true
	}
	go func() {
		defer close(exited)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-quit:
				read()
				return
			case <-t.C:
				if !read() {
					<-quit
					return
				}
			}
		}
	}()
	return func() int64 { close(quit); <-exited; return covered }
}

// windows is how many equal slices a phase is cut into. Rates and
// medians are taken per slice and reported as the median slice, so a
// stall on a shared host moves the slices it hits, not the result.
const windows = 20

// sampleWindows records the process CPU time at the start of the phase
// and at the end of each of its windows. wait returns once the last
// window has ended; callers call it after the phase's deadline.
func sampleWindows(start time.Time, d time.Duration, cpu *[]time.Duration) (wait func()) {
	*cpu = append((*cpu)[:0], cpuTime())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= windows; i++ {
			time.Sleep(time.Until(start.Add(d * time.Duration(i) / windows)))
			*cpu = append(*cpu, cpuTime())
		}
	}()
	return func() { <-done }
}

// window is one slice of a phase: the ops that completed in it.
type window struct {
	secs float64
	cpu  time.Duration
	lat  []float64
}

// windowed cuts the phase's completed ops into its windows.
func (r *phaseResult) windowed(d time.Duration) []window {
	ws := make([]window, windows)
	span := d.Seconds() / windows
	for i := range ws {
		ws[i].secs = span
		ws[i].cpu = r.windowCPU[i+1] - r.windowCPU[i]
	}
	for i, t := range r.at {
		if k := int(t / span); k < windows {
			ws[k].lat = append(ws[k].lat, r.lat[i])
		}
	}
	return ws
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
