package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"hlpower/internal/service"
)

// Request kinds, one per powerd endpoint the workloads drive.
const (
	kindSimulate = "simulate"
	kindRank     = "rank"
	kindPredict  = "predict"
	kindBDD      = "bdd"
	kindBatch    = "batch"
	kindOptimize = "optimize"
)

var circuits = []string{"adder", "carry-select", "multiplier", "subtractor", "comparator"}

// endpoints maps a request kind to the path it is posted to.
var endpoints = map[string]string{
	kindSimulate: "/v1/simulate",
	kindRank:     "/v1/rank",
	kindPredict:  "/v1/predict",
	kindBDD:      "/v1/bdd",
	kindBatch:    "/v1/batch",
	kindOptimize: "/v1/optimize",
}

// op is one generated request. body is exactly what goes on the wire;
// the typed request beside it is what the traced replay and the
// correctness gate use.
type op struct {
	kind   string
	body   []byte
	repeat bool // replays an earlier request of the same client

	// Planned server memo traffic of this op: lookups it causes and how
	// many of them are served without computing.
	lookups, hits int

	sim   *service.SimulateRequest
	rank  *service.RankRequest
	pred  *service.PredictRequest
	bdd   *service.BDDRequest
	batch *service.BatchRequest
	opt   *service.OptimizeRequest
}

// shape is one (circuit, width) netlist the service compiles lazily.
type shape struct {
	circuit string
	width   int
}

// workload is one closed-loop traffic mix.
type workload struct {
	name    string
	clients int
	why     string
	// fresh draws a request no earlier op has sent.
	fresh func(g *generator) *op
	// repeat is the share of ops that replay one of the client's last
	// historyLen distinct requests, drawn Zipf-weighted by recency.
	repeat float64
	// shapes are the netlists the workload can touch; bddShapes the
	// boolean functions. Set-up answers one request of each, so lazy
	// compiles land in setup_s and every BDD content key is warm.
	shapes    []shape
	bddShapes []service.BDDRequest
	// warmCycles is the cycle count of the per-shape warm-up simulates.
	warmCycles int
	// warmJob is the optimize request set-up runs once (optimize-jobs).
	warmJob *service.OptimizeRequest
	// checks is how many answers per request kind and client the
	// correctness gate recomputes. The serial engine and library jobs
	// are slow next to the server, so long requests get fewer.
	checks int
	// heapOps is how many ops peak_heap_mb covers. The server keeps
	// memo entries and finished jobs, so its heap grows with the ops
	// served; a fixed op count keeps a faster server from reading as a
	// bigger one. It is a sixth or less of a 60 s run's ops.
	heapOps int
}

const historyLen = 1024

// zipfS is the Zipf exponent of the recency draw: rank r (0 = most
// recent) has weight 1/(r+1)^zipfS.
const zipfS = 1.1

var zipfCum = func() []float64 {
	cum := make([]float64, historyLen)
	sum := 0.0
	for r := range cum {
		sum += 1 / math.Pow(float64(r+1), zipfS)
		cum[r] = sum
	}
	return cum
}()

// generator produces one client's request stream. The stream is a pure
// function of (workload, seed, client).
type generator struct {
	w      *workload
	client int
	rng    *rand.Rand
	n      int   // ops drawn so far
	hist   []*op // distinct fresh requests, oldest first
	bodies map[string]bool
}

func newGenerator(w *workload, seed int64, client int) *generator {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", w.name, seed, client)
	return &generator{
		w:      w,
		client: client,
		rng:    rand.New(rand.NewSource(int64(h.Sum64() >> 1))),
		bodies: map[string]bool{},
	}
}

// next draws the client's next op.
func (g *generator) next() *op {
	defer func() { g.n++ }()
	if g.w.repeat > 0 && len(g.hist) > 0 && g.rng.Float64() < g.w.repeat {
		u := g.rng.Float64() * zipfCum[len(g.hist)-1]
		r := sort.SearchFloat64s(zipfCum[:len(g.hist)], u)
		if r >= len(g.hist) {
			r = len(g.hist) - 1
		}
		o := *g.hist[len(g.hist)-1-r]
		o.repeat = true
		o.hits = o.repeatLookups()
		o.lookups = o.hits
		return &o
	}
	o := g.w.fresh(g)
	if !g.bodies[string(o.body)] {
		g.bodies[string(o.body)] = true
		g.hist = append(g.hist, o)
		if len(g.hist) > historyLen {
			delete(g.bodies, string(g.hist[0].body))
			g.hist = g.hist[1:]
		}
	}
	return o
}

// repeatLookups is the memo traffic of a replayed request: one stored
// hit per request key (a batch has one per item).
func (o *op) repeatLookups() int {
	if o.kind == kindBatch {
		return len(o.batch.Items)
	}
	return 1
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs are marshalled
	}
	return b
}

// simBody is the simulate wire form without the workers field, so the
// server's own sharding choice is what runs.
type simBody struct {
	Circuit string `json:"circuit"`
	Width   int    `json:"width"`
	Cycles  int    `json:"cycles"`
	Seed    int64  `json:"seed"`
}

func simulateOp(req service.SimulateRequest) *op {
	return &op{
		kind:    kindSimulate,
		body:    mustJSON(simBody{req.Circuit, req.Width, req.Cycles, req.Seed}),
		lookups: 1,
		sim:     &req,
	}
}

func rankOp(req service.RankRequest) *op {
	// The whole-response key plus one key per candidate design.
	return &op{kind: kindRank, body: mustJSON(req), lookups: 4, rank: &req}
}

func predictOp(req service.PredictRequest) *op {
	// The response key plus the memoized ground-truth trace.
	return &op{kind: kindPredict, body: mustJSON(req), lookups: 2, pred: &req}
}

func bddOp(req service.BDDRequest) *op {
	// Set-up warms every BDD content key, so each one is a stored hit.
	return &op{kind: kindBDD, body: mustJSON(req), lookups: 1, hits: 1, bdd: &req}
}

func batchOp(req service.BatchRequest) *op {
	return &op{kind: kindBatch, body: mustJSON(req), lookups: len(req.Items), batch: &req}
}

func optimizeOp(req service.OptimizeRequest) *op {
	return &op{kind: kindOptimize, body: mustJSON(req), opt: &req}
}

func (g *generator) pickShape() shape { return g.w.shapes[g.rng.Intn(len(g.w.shapes))] }

func allShapes(widths ...int) []shape {
	var s []shape
	for _, w := range widths {
		for _, c := range circuits {
			s = append(s, shape{c, w})
		}
	}
	return s
}

func bddShapes(minVars, maxVars int) []service.BDDRequest {
	var s []service.BDDRequest
	for _, f := range []string{"parity", "majority", "and"} {
		for v := minVars; v <= maxVars; v++ {
			s = append(s, service.BDDRequest{Function: f, Vars: v})
		}
	}
	return s
}

// Workload sizes. They are part of the benchmark's definition: changing
// one changes what every later comparison measures.
const (
	smallCycles   = 64
	smallWidth    = 8
	largeCycles   = 16384
	largeWidth    = 12
	mixSimCycles  = 1024
	mixRankCycles = 512
	mixBatchItems = 16
	mixBatchCyc   = 256
	mixPredCycles = 256
	jobCircuit    = "adder"
	jobWidth      = 8
	jobCandidates = 48
)

var workloads = []*workload{
	{
		name:       "sim-small",
		clients:    2,
		why:        "64-cycle simulates: HTTP, JSON, keys, wrappers, setup and sharding dominate; every request is a memo miss and store",
		shapes:     allShapes(smallWidth),
		warmCycles: smallCycles,
		checks:     64,
		heapOps:    100000,
		fresh: func(g *generator) *op {
			return simulateOp(service.SimulateRequest{
				Circuit: circuits[(g.client+g.n)%len(circuits)],
				Width:   smallWidth, Cycles: smallCycles, Seed: g.rng.Int63(),
			})
		},
	},
	{
		name:       "sim-large",
		clients:    1,
		why:        "16384-cycle width-12 multiplier: the kernel's settle and extraction dominate and sharding can use the second core",
		shapes:     []shape{{"multiplier", largeWidth}},
		warmCycles: largeCycles,
		checks:     3,
		heapOps:    1000,
		fresh: func(g *generator) *op {
			return simulateOp(service.SimulateRequest{
				Circuit: "multiplier", Width: largeWidth, Cycles: largeCycles, Seed: g.rng.Int63(),
			})
		},
	},
	{
		name:       "mixed-repeat",
		clients:    2,
		why:        "all five endpoints with 75% Zipf repeats: memo hits, clone and encode, plus rank, predict, bdd and batch partitioning",
		repeat:     0.75,
		shapes:     allShapes(6, 8),
		bddShapes:  bddShapes(6, 10),
		warmCycles: mixSimCycles,
		checks:     8,
		heapOps:    50000,
		fresh:      mixedFresh,
	},
	{
		name:    "optimize-jobs",
		clients: 2,
		why:     "recipe-search jobs submitted and polled to completion: jobs, recipe, verify and the prefix memo",
		warmJob: &service.OptimizeRequest{Kind: "circuit", Circuit: jobCircuit, Width: jobWidth, Candidates: jobCandidates, Seed: -1},
		checks:  3,
		heapOps: 1000,
		fresh: func(g *generator) *op {
			return optimizeOp(service.OptimizeRequest{
				Kind: "circuit", Circuit: jobCircuit, Width: jobWidth,
				Candidates: jobCandidates, Seed: g.rng.Int63(),
			})
		},
	},
}

func mixedFresh(g *generator) *op {
	x := g.rng.Float64()
	switch {
	case x < 0.40:
		s := g.pickShape()
		return simulateOp(service.SimulateRequest{Circuit: s.circuit, Width: s.width, Cycles: mixSimCycles, Seed: g.rng.Int63()})
	case x < 0.60:
		return rankOp(service.RankRequest{Width: g.pickShape().width, Cycles: mixRankCycles, Seed: g.rng.Int63()})
	case x < 0.75:
		s := g.pickShape()
		models := []string{"pfa", "dbt", "bitwise", "io"}
		return predictOp(service.PredictRequest{
			Circuit: s.circuit, Width: s.width, Model: models[g.rng.Intn(len(models))],
			Train: mixPredCycles, Eval: mixPredCycles, Seed: g.rng.Int63(),
		})
	case x < 0.85:
		return bddOp(g.w.bddShapes[g.rng.Intn(len(g.w.bddShapes))])
	default:
		req := service.BatchRequest{Items: make([]service.BatchItem, mixBatchItems)}
		for i := range req.Items {
			s := g.pickShape()
			req.Items[i] = service.BatchItem{Op: service.OpSimulate, Simulate: &service.SimulateRequest{
				Circuit: s.circuit, Width: s.width, Cycles: mixBatchCyc, Seed: g.rng.Int63(),
			}}
		}
		return batchOp(req)
	}
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// warmOps are the set-up requests: one per shape and BDD function, plus
// the warm-up job. Their seeds are negative, which no generated request
// uses (rand.Int63 is never negative), so they never alias timed traffic.
func (w *workload) warmOps() []*op {
	var ops []*op
	for i, s := range w.shapes {
		ops = append(ops, simulateOp(service.SimulateRequest{Circuit: s.circuit, Width: s.width, Cycles: w.warmCycles, Seed: -int64(i + 1)}))
	}
	for _, b := range w.bddShapes {
		ops = append(ops, bddOp(b))
	}
	if w.warmJob != nil {
		ops = append(ops, optimizeOp(*w.warmJob))
	}
	return ops
}
