package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hlpower/internal/budget"
	"hlpower/internal/hlerr"
	"hlpower/internal/jobs"
	"hlpower/internal/memo"
	"hlpower/internal/powerd"
	"hlpower/internal/resilience"
	"hlpower/internal/rtlib"
	"hlpower/internal/service"
	"hlpower/internal/sim"
)

// span is one timed call into a layer's public function. Spans of one
// request share req. parent is the index of the enclosing span in the
// same client's list, or -1.
//
// Replayed spans are recorded after the round trip they explain, so a
// parent's self time is its duration minus the summed durations of its
// children rather than the part of its interval they cover; for spans
// that really nest, such as memo.miss around resilience.execute, the
// two agree.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Value carries a per-span count where the layer reports one:
	// shards for sim.run, gate evaluations (gates x cycles) for
	// sim.run_w1, evaluated candidates for jobs.job.
	Value float64 `json:"value,omitempty"`
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

// spanLog is one client's spans, kept in memory until the run ends.
type spanLog struct {
	epoch time.Time
	spans []span
}

func (l *spanLog) begin(name string, req int64, parent int) int {
	l.spans = append(l.spans, span{Name: name, Req: req, Parent: parent, Start: int64(time.Since(l.epoch))})
	return len(l.spans) - 1
}

func (l *spanLog) end(i int) { l.spans[i].End = int64(time.Since(l.epoch)) }

// timed records fn as one span.
func (l *spanLog) timed(name string, req int64, parent int, fn func()) int {
	i := l.begin(name, req, parent)
	fn()
	l.end(i)
	return i
}

// replayArtifact is the benchmark's own compiled netlist for one shape,
// promoted to the codegen tier after as many runs as powerd waits.
type replayArtifact struct {
	once sync.Once
	mod  *rtlib.Module
	comp *sim.Compiled
	err  error
	runs atomic.Int64
}

// replayEnv mirrors one powerd server's layers in-process: the same key
// schema, a memo cache of the same size fed the same requests, the same
// retry policy, breakers and budgets, a service.Local, and a library job
// engine. Each op's round trip is followed by a replay through these
// layers' public functions in the order powerd nests them.
type replayEnv struct {
	cfg      powerd.Config
	keys     service.Keys
	cache    *memo.Cache
	local    *service.Local
	breakers map[string]*resilience.Breaker
	mgr      *jobs.Manager
	logs     []*spanLog
	reqSeq   atomic.Int64

	artMu sync.Mutex
	arts  map[shape]*replayArtifact
	probe *spanLog // compile spans, shared by clients under artMu
}

func newReplayEnv(clients int) *replayEnv {
	cfg := serverConfig()
	e := &replayEnv{
		cfg:      cfg,
		keys:     service.Keys{MaxSteps: cfg.MaxSteps},
		cache:    memo.New(memo.Options{MaxBytes: cfg.MemoMaxBytes, Shards: cfg.MemoShards}),
		breakers: map[string]*resilience.Breaker{},
		arts:     map[shape]*replayArtifact{},
	}
	epoch := time.Now()
	e.probe = &spanLog{epoch: epoch}
	for i := 0; i < clients; i++ {
		e.logs = append(e.logs, &spanLog{epoch: epoch})
	}
	e.local = &service.Local{Keys: e.keys, Cache: func() *memo.Cache { return e.cache }}
	for _, name := range powerd.Subsystems {
		e.breakers[name] = resilience.NewBreaker(resilience.BreakerConfig{
			Name: name, FailureThreshold: cfg.FailureThreshold, OpenTimeout: cfg.OpenTimeout,
			HalfOpenProbes: cfg.HalfOpenProbes, Clock: cfg.Clock,
		})
	}
	e.mgr = jobs.New(jobs.Config{Cache: func() *memo.Cache { return e.cache }})
	return e
}

func (e *replayEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return e.mgr.Drain(ctx)
}

func (e *replayEnv) newRequest() int64 { return e.reqSeq.Add(1) }

// artifact compiles a shape once, recording the compile as a sim.compile
// span.
func (e *replayEnv) artifact(s shape) (*replayArtifact, error) {
	e.artMu.Lock()
	a := e.arts[s]
	if a == nil {
		a = &replayArtifact{}
		e.arts[s] = a
	}
	e.artMu.Unlock()
	a.once.Do(func() {
		t0 := time.Since(e.probe.epoch)
		a.mod, a.comp, a.err = compileShape(s)
		t1 := time.Since(e.probe.epoch)
		e.artMu.Lock()
		e.probe.spans = append(e.probe.spans, span{Name: "sim.compile", Parent: -1, Start: int64(t0), End: int64(t1)})
		e.artMu.Unlock()
	})
	return a, a.err
}

// compileShape builds and compiles a shape's netlist with the electrical
// options service.Local serves with.
func compileShape(s shape) (*rtlib.Module, *sim.Compiled, error) {
	mod, err := service.ModuleFor(s.circuit, s.width)
	if err != nil {
		return nil, nil, err
	}
	comp, err := sim.Compile(mod.Net, sim.Options{Vdd: 1, Freq: 1})
	return mod, comp, err
}

// budgetFor is the per-attempt budget powerd builds for a request.
func budgetFor(ctx context.Context) *budget.Budget {
	cfg := serverConfig()
	return budget.New(
		budget.WithContext(ctx),
		budget.WithTimeout(cfg.RequestTimeout),
		budget.WithCheckInterval(cfg.CheckInterval),
		budget.WithMaxSteps(cfg.MaxSteps),
	)
}

// execute mirrors powerd's resilient execution: the retry loop, the
// subsystem breaker, panic containment and a fresh budget per attempt.
func (e *replayEnv) execute(ctx context.Context, name string, op func(b *budget.Budget) (any, error)) (any, error) {
	br := e.breakers[name]
	var result any
	err := e.cfg.Retry.Do(ctx, e.cfg.Clock, func(int) error {
		if err := br.Allow(); err != nil {
			return resilience.Permanent(err)
		}
		v, err := resilience.SafeValue(func() (any, error) { return op(budgetFor(ctx)) })
		if err != nil && hlerr.IsInput(err) {
			err = resilience.Permanent(err)
		}
		br.Record(err)
		if err == nil {
			result = v
		}
		return err
	})
	return result, err
}

// decode mirrors powerd's strict request decoding as a powerd.decode
// span.
func decode(lg *spanLog, rid int64, root int, body []byte, v any) error {
	var err error
	lg.timed("powerd.decode", rid, root, func() {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err = dec.Decode(v)
	})
	return err
}

// encode mirrors powerd's response encoding as a powerd.encode span. The
// wire types are plain structs, which always encode.
func encode(lg *spanLog, rid int64, root int, v any) {
	lg.timed("powerd.encode", rid, root, func() { _ = json.NewEncoder(io.Discard).Encode(v) })
}

// endpoint replays a single-request endpoint below decoding: the content
// key, the memo lookup and, on a miss, the wrapped service call recorded
// as a span named layer.
func (e *replayEnv) endpoint(lg *spanLog, rid int64, root int, subsystem, layer string,
	key func() memo.Key, size int64, call func(*budget.Budget) (any, error)) (any, error) {
	var k memo.Key
	lg.timed("memo.key", rid, root, func() { k = key() })
	return e.memoDo(lg, rid, root, k, func(mp int) (any, int64, bool, error) {
		v, err := e.traceExecute(lg, rid, mp, subsystem, func(b *budget.Budget, ep int) (any, error) {
			var v any
			var err error
			lg.timed(layer, rid, ep, func() { v, err = call(b) })
			return v, err
		})
		return v, size, err == nil, err
	})
}

// replay re-executes one answered op through the library layers. The
// round trip becomes the powerd.rtt root span; the replayed layers are
// its children. It fails when the replay's answer disagrees with the
// live server's.
func (e *replayEnv) replay(lg *spanLog, rid int64, o *op, p parsed, rtt time.Duration) error {
	now := int64(time.Since(lg.epoch))
	root := len(lg.spans)
	lg.spans = append(lg.spans, span{Name: "powerd.rtt", Req: rid, Parent: -1, Start: now - rtt.Nanoseconds(), End: now})
	ctx := context.Background()
	switch o.kind {
	case kindSimulate:
		var req service.SimulateRequest
		if err := decode(lg, rid, root, o.body, &req); err != nil {
			return err
		}
		wrap := func(mp int, op func(*budget.Budget, int) (any, error)) (any, error) {
			return e.traceExecute(lg, rid, mp, "sim", op)
		}
		resp, err := e.simulate(lg, rid, root, req, "service.simulate", wrap, func(b *budget.Budget) (*sim.Result, error) {
			return e.local.Simulate(ctx, b, req)
		})
		if err != nil {
			return err
		}
		resp.Cached = p.sim.Cached
		encode(lg, rid, root, resp)
		if !sameBits(resp.Power, p.sim.Power) {
			return fmt.Errorf("replay of %s: power %v, live server %v", o.body, resp.Power, p.sim.Power)
		}
	case kindRank:
		var req service.RankRequest
		if err := decode(lg, rid, root, o.body, &req); err != nil {
			return err
		}
		v, err := e.endpoint(lg, rid, root, "rank", "service.rank", func() memo.Key { return e.keys.Rank(req) }, 64+96*3,
			func(b *budget.Budget) (any, error) { return e.local.Rank(ctx, b, req) })
		if err != nil {
			return err
		}
		resp := v.(service.RankResponse)
		encode(lg, rid, root, resp)
		if resp.Best != p.rank.Best {
			return fmt.Errorf("replay of %s: best %s, live server %s", o.body, resp.Best, p.rank.Best)
		}
	case kindPredict:
		var req service.PredictRequest
		if err := decode(lg, rid, root, o.body, &req); err != nil {
			return err
		}
		v, err := e.endpoint(lg, rid, root, "predict", "service.predict", func() memo.Key { return e.keys.Predict(req) }, 128,
			func(b *budget.Budget) (any, error) { return e.local.Predict(ctx, b, req) })
		if err != nil {
			return err
		}
		resp := v.(service.PredictResponse)
		encode(lg, rid, root, resp)
		if !sameBits(resp.Predicted, p.pred.Predicted) {
			return fmt.Errorf("replay of %s: predicted %v, live server %v", o.body, resp.Predicted, p.pred.Predicted)
		}
	case kindBDD:
		var req service.BDDRequest
		if err := decode(lg, rid, root, o.body, &req); err != nil {
			return err
		}
		var tt []bool
		var err error
		lg.timed("service.truth_table", rid, root, func() { tt, err = service.TruthTable(req.Function, req.Vars) })
		if err != nil {
			return err
		}
		v, err := e.endpoint(lg, rid, root, "bdd", "service.bdd", func() memo.Key { return e.keys.BDD(tt, req.Vars) }, 32,
			func(b *budget.Budget) (any, error) { return e.local.BDD(ctx, b, req, tt) })
		if err != nil {
			return err
		}
		out := v.(service.BDDOutcome)
		encode(lg, rid, root, service.BDDResponse{Function: req.Function, Vars: req.Vars, Nodes: out.Nodes})
		if out.Nodes != p.bdd.Nodes {
			return fmt.Errorf("replay of %s: %d nodes, live server %d", o.body, out.Nodes, p.bdd.Nodes)
		}
	case kindBatch:
		var req service.BatchRequest
		if err := decode(lg, rid, root, o.body, &req); err != nil {
			return err
		}
		var itemErr error
		bs := lg.begin("service.batch", rid, root)
		resp := e.local.Batch(ctx, req, service.BatchHooks{
			Budget: func() *budget.Budget { return budgetFor(ctx) },
			Steps:  e.cfg.BatchSteps,
			Item: func(ctx context.Context, runner *service.GroupRunner, b *budget.Budget, idx int, it service.BatchItem) (service.BatchItemResult, error) {
				out := service.BatchItemResult{Index: idx, Op: it.Op}
				wrap := func(mp int, op func(*budget.Budget, int) (any, error)) (any, error) {
					return e.batchExec(lg, rid, mp, b, op)
				}
				sr, err := e.simulate(lg, rid, bs, *it.Simulate, "service.batch_item", wrap, func(eb *budget.Budget) (*sim.Result, error) {
					return runner.Simulate(eb, *it.Simulate)
				})
				if err != nil {
					itemErr = err
					return out, err
				}
				out.Simulate = &sr
				return out, nil
			},
		})
		lg.end(bs)
		if itemErr != nil {
			return itemErr
		}
		encode(lg, rid, root, resp)
		for i, it := range resp.Items {
			if it.Simulate == nil || !sameBits(it.Simulate.Power, p.batch.Items[i].Simulate.Power) {
				return fmt.Errorf("replay of batch item %d disagrees with the live server", i)
			}
		}
	case kindOptimize:
		var req service.OptimizeRequest
		if err := decode(lg, rid, root, o.body, &req); err != nil {
			return err
		}
		var st *jobs.Status
		var err error
		js := lg.timed("jobs.job", rid, root, func() { st, err = runJob(e.mgr, jobParams(req)) })
		if err != nil {
			return err
		}
		lg.spans[js].Value = float64(st.Evaluated)
		if !sameBits(st.BestScore, p.job.BestScore) {
			return fmt.Errorf("replay of job seed %d: best %v, live server %v", req.Seed, st.BestScore, p.job.BestScore)
		}
	}
	return nil
}

// memoDo mirrors powerd's memoDo and names the span by its outcome:
// memo.hit when the cache answered, memo.miss when compute ran.
func (e *replayEnv) memoDo(lg *spanLog, rid int64, parent int, k memo.Key, compute func(parent int) (any, int64, bool, error)) (any, error) {
	i := lg.begin("memo.miss", rid, parent)
	v, shared, err := e.cache.Do(k, func() (any, int64, bool, error) { return compute(i) })
	lg.end(i)
	if shared {
		lg.spans[i].Name = "memo.hit"
	}
	return v, err
}

// traceExecute is execute with the wrapper recorded as a
// resilience.execute span around the layer call.
func (e *replayEnv) traceExecute(lg *spanLog, rid int64, parent int, name string, op func(b *budget.Budget, parent int) (any, error)) (any, error) {
	i := lg.begin("resilience.execute", rid, parent)
	defer lg.end(i)
	return e.execute(context.Background(), name, func(b *budget.Budget) (any, error) { return op(b, i) })
}

// batchExec mirrors powerd's per-item wrapper: the subsystem breaker and
// panic containment around the item's own budget, without the retry
// loop.
func (e *replayEnv) batchExec(lg *spanLog, rid int64, parent int, b *budget.Budget, op func(*budget.Budget, int) (any, error)) (any, error) {
	i := lg.begin("resilience.batch_exec", rid, parent)
	defer lg.end(i)
	br := e.breakers["sim"]
	if err := br.Allow(); err != nil {
		return nil, err
	}
	v, err := resilience.SafeValue(func() (any, error) { return op(b, i) })
	rerr := err
	if rerr != nil && hlerr.IsInput(rerr) {
		rerr = resilience.Permanent(rerr)
	}
	br.Record(rerr)
	return v, err
}

// simulate replays one simulate (a request or a batch item): the key,
// the memo lookup and, on a miss, call under wrap, recorded as a span
// named layer. After a computed answer it replays the call's parts as
// the layer span's children: the operand streams and Compiled.Run as
// served, plus a Workers: 1 run as a sim.run_w1 probe outside the tree.
func (e *replayEnv) simulate(lg *spanLog, rid int64, parent int, req service.SimulateRequest, layer string,
	wrap func(mp int, op func(*budget.Budget, int) (any, error)) (any, error),
	call func(*budget.Budget) (*sim.Result, error)) (service.SimulateResponse, error) {
	var k memo.Key
	lg.timed("memo.key", rid, parent, func() { k = e.keys.Simulate(req) })
	layerSpan := -1
	v, err := e.memoDo(lg, rid, parent, k, func(mp int) (any, int64, bool, error) {
		rv, err := wrap(mp, func(b *budget.Budget, ep int) (any, error) {
			var res *sim.Result
			var err error
			layerSpan = lg.timed(layer, rid, ep, func() { res, err = call(b) })
			return res, err
		})
		if err != nil {
			return nil, 0, false, err
		}
		res := rv.(*sim.Result)
		return service.SimulateResponse{
			Circuit: req.Circuit, Cycles: res.Cycles, SwitchedCap: res.SwitchedCap,
			Power: res.Power(), Shards: res.Shards, Fallback: res.Fallback, Kernel: res.Kernel,
		}, 160, true, nil
	})
	if err != nil {
		return service.SimulateResponse{}, err
	}
	resp := v.(service.SimulateResponse)
	if layerSpan >= 0 {
		if err := e.simulateParts(lg, rid, layerSpan, req, resp); err != nil {
			return resp, err
		}
	}
	return resp, nil
}

func (e *replayEnv) simulateParts(lg *spanLog, rid int64, parent int, req service.SimulateRequest, served service.SimulateResponse) error {
	var as, bs []uint64
	lg.timed("service.streams", rid, parent, func() { as, bs = service.OperandStreams(req.Cycles, req.Width, req.Seed) })
	a, err := e.artifact(shape{req.Circuit, req.Width})
	if err != nil {
		return err
	}
	if a.runs.Add(1) == service.DefaultCodegenAfter {
		if err := a.comp.BuildCodegen(); err != nil {
			return err
		}
	}
	mod := a.mod
	prov := func(c int) []bool { return mod.InputVector(as[c], bs[c]) }
	opts := serveOptions(mod, as, bs)
	opts.Workers = req.Workers
	var res *sim.Result
	ri := lg.timed("sim.run", rid, parent, func() { res, err = a.comp.Run(budgetFor(context.Background()), prov, req.Cycles, opts) })
	if err != nil {
		return err
	}
	lg.spans[ri].Value = float64(res.Shards)
	if !sameBits(res.Power(), served.Power) {
		return fmt.Errorf("Compiled.Run of %+v: power %v, served %v", req, res.Power(), served.Power)
	}
	opts.Workers = 1
	wi := lg.timed("sim.run_w1", rid, -1, func() { res, err = a.comp.Run(budgetFor(context.Background()), prov, req.Cycles, opts) })
	lg.spans[wi].Value = float64(a.comp.NumGates()) * float64(req.Cycles)
	return err
}

// bddProbe times Local.BDD once per BDD function of the workload.
// Set-up warms every BDD content key, so served BDD requests never reach
// the layer; the probe spans stand in for them.
func (e *replayEnv) bddProbe(w *workload) {
	fresh := &service.Local{}
	for _, req := range w.bddShapes {
		tt, err := service.TruthTable(req.Function, req.Vars)
		if err != nil {
			continue // the generator only draws valid functions
		}
		e.probe.timed("service.bdd", 0, -1, func() { _, _ = fresh.BDD(context.Background(), budgetFor(context.Background()), req, tt) })
	}
}

// serveOptions are the run options service.Local serves a request with.
func serveOptions(mod *rtlib.Module, as, bs []uint64) sim.RunOptions {
	return sim.RunOptions{Words: func(c int) uint64 { return mod.InputWord(as[c], bs[c]) }, Lean: true}
}

// allSpans gathers every client's spans with parents rebased into one
// list.
func (e *replayEnv) allSpans() []span {
	var out []span
	for _, lg := range append(e.logs, e.probe) {
		base := len(out)
		for _, s := range lg.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			out = append(out, s)
		}
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// selfTimes returns, for each span, its duration minus its children's.
func selfTimes(spans []span) []float64 {
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// layerStats summarises spans by name: durations and self times in µs.
type layerStats struct {
	dur, self map[string][]float64
	value     map[string][]float64
}

func summarize(spans []span) layerStats {
	ls := layerStats{dur: map[string][]float64{}, self: map[string][]float64{}, value: map[string][]float64{}}
	self := selfTimes(spans)
	for i, s := range spans {
		ls.dur[s.Name] = append(ls.dur[s.Name], s.dur()/1e3)
		ls.self[s.Name] = append(ls.self[s.Name], self[i]/1e3)
		if s.Value != 0 {
			ls.value[s.Name] = append(ls.value[s.Name], s.Value)
		}
	}
	return ls
}

func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(xs, 0.5)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
