// Package service is the transport-agnostic estimation service layer:
// the Simulate/Rank/BDD/Predict operations powerd exposes over HTTP,
// expressed as plain Go interfaces over internal/core and the engine
// packages. Extracting it from the HTTP handlers lets any transport —
// the local HTTP daemon, a cluster peer endpoint, a test harness —
// invoke the same computations with the same validation, the same
// typed input errors, and the same content keys, without dragging in
// admission control, breakers, or JSON plumbing.
//
// The split is deliberate: everything that determines a response's
// bytes (circuit construction, operand streams, simulation, ranking,
// model fitting) lives here; everything that determines whether and
// how a request runs (budgets, retries, breakers, caching policy,
// cluster routing) stays with the caller. That is what makes cluster
// mode safe — a request forwarded to a peer and a request computed
// locally run the exact same code and produce bit-identical figures.
package service

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"

	"hlpower/internal/bdd"
	"hlpower/internal/bitutil"
	"hlpower/internal/budget"
	"hlpower/internal/core"
	"hlpower/internal/hlerr"
	"hlpower/internal/macromodel"
	"hlpower/internal/memo"
	"hlpower/internal/rtlib"
	"hlpower/internal/sim"
)

// Request limits shared by every transport.
const (
	MaxWidth   = 16
	MaxCycles  = 200_000
	MaxBDDVars = 16
)

// SimulateRequest asks for the gate-level Monte Carlo power of one
// RT-library circuit.
type SimulateRequest struct {
	Circuit string `json:"circuit"`
	Width   int    `json:"width"`
	Cycles  int    `json:"cycles"`
	Seed    int64  `json:"seed"`
	Workers int    `json:"workers"`
}

// SimulateResponse is the simulate wire type. Hedged and Cached are
// execution metadata owned by the serving layer; the remaining fields
// are pure functions of the request.
type SimulateResponse struct {
	Circuit     string  `json:"circuit"`
	Cycles      int     `json:"cycles"`
	SwitchedCap float64 `json:"switched_cap"`
	Power       float64 `json:"power"`
	Shards      int     `json:"shards"`
	Fallback    string  `json:"fallback,omitempty"`
	// Kernel is "packed" when the 64-lane bit-packed kernel served the
	// request, empty when the interpreted scalar engine ran.
	Kernel string `json:"kernel,omitempty"`
	Hedged bool   `json:"hedged"`
	// Cached reports the response was replayed from the estimate cache
	// (or shared with a concurrent identical request) — bit-identical to
	// a recomputation, including the Shards/Fallback/Kernel metadata of
	// the run that produced it.
	Cached bool `json:"cached"`
}

// RankRequest asks for one improvement-loop turn over the adder
// alternatives.
type RankRequest struct {
	Width  int   `json:"width"`
	Cycles int   `json:"cycles"`
	Seed   int64 `json:"seed"`
}

// RankedEntry is one candidate's evaluated line in a RankResponse.
type RankedEntry struct {
	Name     string  `json:"name"`
	Power    float64 `json:"power"`
	Model    string  `json:"model"`
	Degraded bool    `json:"degraded"`
	// Cached marks a candidate whose power figure was reused from a
	// previous evaluation rather than simulated by this request.
	Cached bool   `json:"cached,omitempty"`
	Err    string `json:"error,omitempty"`
}

// RankResponse is the rank wire type.
type RankResponse struct {
	Best    string        `json:"best"`
	Ranking []RankedEntry `json:"ranking"`
	// Cached reports the whole response was replayed from the estimate
	// cache; per-entry Cached flags then describe the computation that
	// originally produced it.
	Cached bool `json:"cached"`
}

// BDDRequest asks for the BDD size of a named boolean function.
type BDDRequest struct {
	Function string `json:"function"` // "parity" | "majority" | "and"
	Vars     int    `json:"vars"`
	// AllowDegraded accepts a sampled size estimate when the budget
	// cuts off the exact BDD build; without it, a budget trip is an
	// error (and counts against the bdd breaker).
	AllowDegraded bool `json:"allow_degraded"`
}

// BDDResponse is the bdd wire type.
type BDDResponse struct {
	Function string `json:"function"`
	Vars     int    `json:"vars"`
	Nodes    int    `json:"nodes"`
	Degraded bool   `json:"degraded"`
	// Cached reports the node count was replayed from the estimate
	// cache. Degraded (sampled) estimates are never cached, so a cached
	// response is always an exact build.
	Cached bool `json:"cached"`
}

// BDDOutcome is the computed (pre-wire) outcome of one BDD size
// estimate: the node count and whether it is a sampled fallback.
type BDDOutcome struct {
	Nodes    int
	Degraded bool
}

// PredictRequest asks for a macro-model prediction checked against
// budgeted ground truth.
type PredictRequest struct {
	Circuit string `json:"circuit"`
	Width   int    `json:"width"`
	Model   string `json:"model"` // "pfa" | "dbt" | "bitwise" | "io"
	Train   int    `json:"train"`
	Eval    int    `json:"eval"`
	Seed    int64  `json:"seed"`
}

// PredictResponse is the predict wire type.
type PredictResponse struct {
	Circuit   string  `json:"circuit"`
	Model     string  `json:"model"`
	Predicted float64 `json:"predicted"`
	Measured  float64 `json:"measured"`
	AbsErrPct float64 `json:"abs_err_pct"`
	// Cached reports the response was replayed from the estimate cache.
	Cached bool `json:"cached"`
}

// CandEstimate is one rank candidate's evaluated power figure as it
// travels between cluster nodes: the scalar outcome plus the flags a
// requester needs to decide cacheability.
type CandEstimate struct {
	Power    float64 `json:"power"`
	Degraded bool    `json:"degraded"`
	// Cached reports the owner answered from its estimate cache (or an
	// in-flight identical evaluation) rather than simulating.
	Cached bool `json:"cached"`
}

// Service is the estimation service: every operation takes the
// caller's context (for remote hops the implementation may make) and a
// resource budget governing the computation. Implementations must be
// deterministic — two calls with equal requests and ample budgets
// return bit-identical figures — and must surface malformed requests
// as hlerr input errors.
type Service interface {
	Simulate(ctx context.Context, b *budget.Budget, req SimulateRequest) (*sim.Result, error)
	Rank(ctx context.Context, b *budget.Budget, req RankRequest) (RankResponse, error)
	BDD(ctx context.Context, b *budget.Budget, req BDDRequest, tt []bool) (BDDOutcome, error)
	Predict(ctx context.Context, b *budget.Budget, req PredictRequest) (PredictResponse, error)
}

// Local computes every operation in-process over internal/core and the
// engine packages. The zero value works; the optional hooks let a
// serving layer observe engine internals and graft in caching and
// cluster routing without this package knowing about either.
type Local struct {
	// Keys derives the content keys Rank uses for per-candidate
	// memoization; it must match the serving layer's key schema.
	Keys Keys
	// Cache, when set, supplies the estimate cache for per-candidate
	// rank memoization and predict ground-truth sharing. It is a
	// function, not a field, because the serving layer disables caching
	// dynamically (e.g. while a fault plan is armed); nil — or a nil
	// return — means no caching.
	Cache func() *memo.Cache
	// OnBDDStats, when set, observes each BDD manager's unique/ITE
	// table traffic, including partial builds abandoned by a budget
	// trip.
	OnBDDStats func(bdd.Stats)
	// RemoteCand, when set, may answer one rank candidate's estimate
	// from elsewhere (another node's cache or compute). Returning
	// ok=false falls back to local evaluation; errors are the remote
	// layer's to absorb, never to surface here.
	RemoteCand func(ctx context.Context, name string, req RankRequest) (CandEstimate, bool)
	// CodegenAfter is the artifact hotness threshold: after this many
	// non-degraded serves of one (circuit,width) shape, the service
	// builds its specialized (codegen) evaluator off the request path
	// and atomically swaps it in. Zero means DefaultCodegenAfter;
	// negative disables promotion entirely.
	CodegenAfter int

	// artifacts caches compiled simulation artifacts per (circuit,
	// width): the RT-library module plus its sim.Compiled (levelized +
	// fused program, pooled kernel scratch). The domain is bounded by
	// construction — artifactFor validates the 5 circuit names and the
	// width range before inserting — so the cache never needs eviction.
	// Each entry is singleflighted: exactly one goroutine compiles a
	// shape, concurrent first requests wait for it.
	artMu     sync.RWMutex
	artifacts map[artifactKey]*artifactEntry

	// buildCodegen builds an artifact's specialized evaluator; nil means
	// (*sim.Compiled).BuildCodegen. Tests inject failures through it.
	buildCodegen func(*sim.Compiled) error

	// Promotion and tier-ladder observability counters (KernelStats).
	artifactBuilds atomic.Int64
	codegenBuilds  atomic.Int64
	codegenFails   atomic.Int64
	promotions     atomic.Int64
	tierScalar     atomic.Int64
	tierPacked     atomic.Int64
	tierFused      atomic.Int64
	tierCodegen    atomic.Int64
}

// DefaultCodegenAfter is the artifact hotness threshold at which the
// service promotes a fused artifact to the codegen tier when the
// caller didn't configure one.
const DefaultCodegenAfter = 8

// artifactKey identifies one compiled serving artifact.
type artifactKey struct {
	circuit string
	width   int
}

// artifactEntry singleflights one artifact's compilation: the first
// goroutine to reach the entry builds under once, everyone else blocks
// on once and reads the settled result. Errors settle too — the
// circuit/width domain is validated before an entry is created, so a
// cached error is deterministic, not transient.
type artifactEntry struct {
	once sync.Once
	art  *artifact
	err  error
}

// artifact is the per-(circuit,width) hot-path state every estimation
// reuses: construction, levelization, fusion, and scratch pooling are
// paid once per netlist shape, not once per request. truthKey is the
// module's encoded ground-truth memo key prefix (netlist hash included),
// so predict keys never rehash the netlist. hits counts non-degraded
// serves toward codegen promotion; promoting guards the single
// background build; promoteFailed pins the artifact to the fused tier
// after a failed build.
type artifact struct {
	mod           *rtlib.Module
	comp          *sim.Compiled
	truthKey      []byte
	hits          atomic.Int64
	promoting     atomic.Bool
	promoteFailed atomic.Bool
}

// checkModule validates a (circuit,width) pair without building it.
func checkModule(circuit string, width int) error {
	if width < 2 || width > MaxWidth {
		return hlerr.Errorf("service.module", "width %d out of range [2,%d]", width, MaxWidth)
	}
	switch circuit {
	case "adder", "carry-select", "multiplier", "subtractor", "comparator":
		return nil
	default:
		return hlerr.Errorf("service.module", "unknown circuit %q", circuit)
	}
}

// artifactFor returns the compiled artifact for a circuit, building and
// caching it on first use. The hot path is one shared-lock map hit;
// first requests insert a singleflight entry under the write lock and
// compile under the entry's once, so concurrent cold requests for one
// shape perform exactly one construction+levelization+fusion.
func (l *Local) artifactFor(circuit string, width int) (*artifact, error) {
	// Validate before touching the cache: the key domain stays bounded
	// by construction and malformed requests leave no entry behind.
	if err := checkModule(circuit, width); err != nil {
		return nil, err
	}
	key := artifactKey{circuit, width}
	l.artMu.RLock()
	e := l.artifacts[key]
	l.artMu.RUnlock()
	if e == nil {
		l.artMu.Lock()
		if e = l.artifacts[key]; e == nil {
			if l.artifacts == nil {
				l.artifacts = make(map[artifactKey]*artifactEntry)
			}
			e = &artifactEntry{}
			l.artifacts[key] = e
		}
		l.artMu.Unlock()
	}
	e.once.Do(func() {
		l.artifactBuilds.Add(1)
		mod, err := ModuleFor(circuit, width)
		if err != nil {
			e.err = err
			return
		}
		comp, err := sim.Compile(mod.Net, sim.Options{Vdd: 1, Freq: 1})
		if err != nil {
			e.err = err
			return
		}
		e.art = &artifact{mod: mod, comp: comp, truthKey: macromodel.TruthKeyPrefix(mod)}
	})
	return e.art, e.err
}

// codegenThreshold resolves the configured promotion threshold; zero
// means promotion is disabled.
func (l *Local) codegenThreshold() int64 {
	switch {
	case l.CodegenAfter < 0:
		return 0
	case l.CodegenAfter == 0:
		return DefaultCodegenAfter
	default:
		return int64(l.CodegenAfter)
	}
}

// noteServe advances an artifact's promotion hotness and kicks off the
// background codegen build when it crosses the threshold. It returns
// whether this request must avoid the codegen tier: fault-armed
// (chaos-degraded) requests never use — or advance toward — a promoted
// evaluator, so injected faults always exercise the tier a cold server
// would serve, and promotion can never launder a faulted result into
// the steady state.
func (l *Local) noteServe(a *artifact, faultArmed bool) (noCodegen bool) {
	if l.noCodegen(faultArmed) {
		return true
	}
	if a.comp.HasCodegen() || a.promoteFailed.Load() {
		return false
	}
	if a.hits.Add(1) >= l.codegenThreshold() && a.promoting.CompareAndSwap(false, true) {
		go l.promote(a)
	}
	return false
}

// noCodegen reports whether a run must stay off the codegen tier:
// fault-armed runs, and every run while promotion is disabled.
func (l *Local) noCodegen(faultArmed bool) bool {
	return faultArmed || l.codegenThreshold() == 0
}

// promote builds an artifact's specialized evaluator off the request
// path. Success swaps the evaluator in atomically — in-flight runs
// finish on the fused tier, the next run picks up codegen. Failure is
// silent and permanent for the artifact: it keeps serving the fused
// interpreter, and only the stats counters record the attempt.
func (l *Local) promote(a *artifact) {
	l.codegenBuilds.Add(1)
	build := l.buildCodegen
	if build == nil {
		build = (*sim.Compiled).BuildCodegen
	}
	if err := build(a.comp); err != nil {
		a.promoteFailed.Store(true)
		l.codegenFails.Add(1)
		return
	}
	l.promotions.Add(1)
}

// noteTier records which kernel tier actually served a run.
func (l *Local) noteTier(kernel string) {
	switch kernel {
	case sim.KernelCodegen:
		l.tierCodegen.Add(1)
	case sim.KernelFused:
		l.tierFused.Add(1)
	case sim.KernelPacked:
		l.tierPacked.Add(1)
	default:
		l.tierScalar.Add(1)
	}
}

// runArtifact executes one estimation over a cached artifact with the
// promotion lifecycle applied: hotness accounting, the fault-armed
// codegen bypass, and per-tier serve counters on success.
func (l *Local) runArtifact(b *budget.Budget, a *artifact, prov sim.InputProvider, cycles int, opts sim.RunOptions) (*sim.Result, error) {
	opts.NoCodegen = l.noteServe(a, b.FaultArmed())
	res, err := a.comp.Run(b, prov, cycles, opts)
	if err == nil {
		l.noteTier(res.Kernel)
	}
	return res, err
}

// KernelStats aggregates the fused-kernel and scratch-pool gauges over
// every compiled artifact this service has built. The serving layer
// surfaces it under /v1/stats.
type KernelStats struct {
	// Artifacts is the number of (circuit,width) shapes compiled so far.
	Artifacts int `json:"artifacts"`
	// FusedGroups and FusedAbsorbed sum, over artifacts, the fused
	// dispatch count per settle and the instructions fusion absorbed.
	FusedGroups   int `json:"fused_groups"`
	FusedAbsorbed int `json:"fused_absorbed"`
	// FusedMix is the summed fused-opcode mix across artifacts.
	FusedMix map[string]int64 `json:"fused_mix,omitempty"`
	// ScratchGets/ScratchNews count kernel scratch acquisitions and the
	// ones that had to allocate; HitRate is (gets−news)/gets.
	ScratchGets    int64   `json:"scratch_gets"`
	ScratchNews    int64   `json:"scratch_news"`
	ScratchHitRate float64 `json:"scratch_hit_rate"`
	// ArtifactBuilds counts artifact compilations — with the
	// singleflighted cache, at most one per (circuit,width) shape for
	// the process lifetime, however many requests race the cold start.
	ArtifactBuilds int64 `json:"artifact_builds"`
	// Tiers counts estimation runs served per kernel tier ("scalar",
	// "packed", "fused", "codegen") across every artifact path —
	// single requests, batch items, rank candidates, and predict's
	// characterization runs.
	Tiers map[string]int64 `json:"tiers,omitempty"`
	// Codegen promotion lifecycle: background specialized-evaluator
	// builds started, builds that failed (the artifact then serves the
	// fused tier forever), successful promotions, and the number of
	// artifacts currently holding a promoted evaluator.
	CodegenBuilds    int64 `json:"codegen_builds"`
	CodegenFailures  int64 `json:"codegen_failures"`
	Promotions       int64 `json:"promotions"`
	CodegenArtifacts int   `json:"codegen_artifacts"`
	// Hotness is each artifact's promotion hit counter, keyed
	// "circuit/width". Counting stops once an artifact is promoted (or
	// its build failed), so a steady-state value near the threshold is
	// expected.
	Hotness map[string]int64 `json:"hotness,omitempty"`
}

// KernelStats snapshots the fused-kernel observability gauges.
func (l *Local) KernelStats() KernelStats {
	l.artMu.RLock()
	defer l.artMu.RUnlock()
	st := KernelStats{
		ArtifactBuilds:  l.artifactBuilds.Load(),
		CodegenBuilds:   l.codegenBuilds.Load(),
		CodegenFailures: l.codegenFails.Load(),
		Promotions:      l.promotions.Load(),
	}
	for name, c := range map[string]int64{
		"scalar":  l.tierScalar.Load(),
		"packed":  l.tierPacked.Load(),
		"fused":   l.tierFused.Load(),
		"codegen": l.tierCodegen.Load(),
	} {
		if c == 0 {
			continue
		}
		if st.Tiers == nil {
			st.Tiers = make(map[string]int64)
		}
		st.Tiers[name] = c
	}
	for key, e := range l.artifacts {
		a := e.art
		if a == nil {
			continue // still building, or a settled error entry
		}
		st.Artifacts++
		st.FusedGroups += a.comp.FusedGroups()
		st.FusedAbsorbed += a.comp.FusedAbsorbed()
		for op, c := range a.comp.FusedMix() {
			if st.FusedMix == nil {
				st.FusedMix = make(map[string]int64)
			}
			st.FusedMix[op] += c
		}
		gets, news := a.comp.ScratchStats()
		st.ScratchGets += gets
		st.ScratchNews += news
		if a.comp.HasCodegen() {
			st.CodegenArtifacts++
		}
		if h := a.hits.Load(); h > 0 {
			if st.Hotness == nil {
				st.Hotness = make(map[string]int64)
			}
			st.Hotness[key.circuit+"/"+strconv.Itoa(key.width)] = h
		}
	}
	if st.ScratchGets > 0 {
		st.ScratchHitRate = float64(st.ScratchGets-st.ScratchNews) / float64(st.ScratchGets)
	}
	return st
}

// Enforce the interface.
var _ Service = (*Local)(nil)

func (l *Local) cache() *memo.Cache {
	if l.Cache == nil {
		return nil
	}
	return l.Cache()
}

// ModuleFor builds the requested RT-library circuit, or an input error.
func ModuleFor(circuit string, width int) (*rtlib.Module, error) {
	if width < 2 || width > MaxWidth {
		return nil, hlerr.Errorf("service.module", "width %d out of range [2,%d]", width, MaxWidth)
	}
	switch circuit {
	case "adder":
		return rtlib.NewAdder(width), nil
	case "carry-select":
		return rtlib.NewCarrySelectAdder(width), nil
	case "multiplier":
		return rtlib.NewMultiplier(width), nil
	case "subtractor":
		return rtlib.NewSubtractor(width), nil
	case "comparator":
		return rtlib.NewComparator(width), nil
	default:
		return nil, hlerr.Errorf("service.module", "unknown circuit %q", circuit)
	}
}

// CheckCycles validates a cycle count against the shared limits.
func CheckCycles(cycles int) error {
	if cycles < 2 || cycles > MaxCycles {
		return hlerr.Errorf("service.cycles", "cycles %d out of range [2,%d]", cycles, MaxCycles)
	}
	return nil
}

// OperandStreams draws the Monte Carlo operand pair for a module.
// Deterministic for a fixed (cycles, width, seed) triple — the basis
// for content-addressing requests by their raw fields. The generator
// is an inlined splitmix64: constant-time seeding and a couple of
// multiplies per word, where math/rand's lagged-Fibonacci source paid
// a ~10µs seed scramble per call — for batch items that setup cost
// dwarfed the 64-lane kernel itself. Every estimation path (single
// handlers, batch groups, rank candidates) funnels through this one
// function, so the streams — whatever their bits — are identical
// everywhere by construction.
func OperandStreams(cycles, width int, seed int64) (as, bs []uint64) {
	mask := bitutil.Mask(width)
	buf := make([]uint64, 2*cycles)
	x := uint64(seed)
	for i := range buf {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		buf[i] = (z ^ (z >> 31)) & mask
	}
	return buf[:cycles:cycles], buf[cycles:]
}

// TruthTable materializes the named boolean function over n variables.
func TruthTable(function string, n int) ([]bool, error) {
	if n < 1 || n > MaxBDDVars {
		return nil, hlerr.Errorf("service.bdd", "vars %d out of range [1,%d]", n, MaxBDDVars)
	}
	tt := make([]bool, 1<<uint(n))
	for i := range tt {
		ones := 0
		for b := 0; b < n; b++ {
			if i>>uint(b)&1 == 1 {
				ones++
			}
		}
		switch function {
		case "parity":
			tt[i] = ones%2 == 1
		case "majority":
			tt[i] = 2*ones > n
		case "and":
			tt[i] = ones == n
		default:
			return nil, hlerr.Errorf("service.bdd", "unknown function %q", function)
		}
	}
	return tt, nil
}

// Simulate runs the gate-level Monte Carlo estimate under b. Requests
// execute over the cached compiled artifact — fused kernel, pooled
// scratch, pre-packed input words, lean accumulation — so steady-state
// serving of a hot netlist does no per-request setup. The power figure
// is bit-identical to the former RunParallel path; the response is lean
// (no per-cycle outputs or group attribution), which the wire type
// never exposed anyway.
func (l *Local) Simulate(_ context.Context, b *budget.Budget, req SimulateRequest) (*sim.Result, error) {
	art, err := l.artifactFor(req.Circuit, req.Width)
	if err != nil {
		return nil, err
	}
	if err := CheckCycles(req.Cycles); err != nil {
		return nil, err
	}
	as, bs := OperandStreams(req.Cycles, req.Width, req.Seed)
	mod := art.mod
	prov := func(c int) []bool { return mod.InputVector(as[c], bs[c]) }
	return l.runArtifact(b, art, prov, req.Cycles, sim.RunOptions{
		Workers: req.Workers,
		Words:   func(c int) uint64 { return mod.InputWord(as[c], bs[c]) },
		Lean:    true,
	})
}

// EvalCand evaluates one rank candidate — (design, workload) pair —
// under b. It is the unit of work cluster mode distributes by key
// ownership, so it must stay a pure function of its arguments.
func (l *Local) EvalCand(b *budget.Budget, name string, req RankRequest) (power float64, degraded bool, err error) {
	if err := CheckCycles(req.Cycles); err != nil {
		return 0, false, err
	}
	as, bs := OperandStreams(req.Cycles, req.Width, req.Seed)
	return l.evalCandStreams(b, name, req.Width, as, bs)
}

// evalCandStreams is EvalCand with the operand streams precomputed, so
// Rank derives them once per request rather than once per candidate.
// Candidates run over the cached compiled artifact with Workers: 1,
// which forces the single-shard path — the caller's budget is charged
// directly, exactly as the former one-shot RunPackedBudget call did —
// while the fused kernel and pooled scratch keep the evaluation free of
// per-candidate setup allocations.
func (l *Local) evalCandStreams(b *budget.Budget, name string, width int, as, bs []uint64) (float64, bool, error) {
	art, err := l.artifactFor(name, width)
	if err != nil {
		return 0, false, err
	}
	mod := art.mod
	prov := func(c int) []bool { return mod.InputVector(as[c], bs[c]) }
	res, err := l.runArtifact(b, art, prov, len(as), sim.RunOptions{
		Workers: 1,
		Words:   func(c int) uint64 { return mod.InputWord(as[c], bs[c]) },
		Lean:    true,
	})
	if err != nil {
		return 0, false, err
	}
	return res.Power(), false, nil
}

// Rank runs one improvement-loop turn over the adder alternatives,
// with per-candidate memoization (when a cache is supplied) and
// optional remote candidate evaluation (when RemoteCand is set). The
// top-level Cached flag is left false — it belongs to the serving
// layer's whole-response cache.
func (l *Local) Rank(ctx context.Context, b *budget.Budget, req RankRequest) (RankResponse, error) {
	if err := CheckCycles(req.Cycles); err != nil {
		return RankResponse{}, err
	}
	as, bs := OperandStreams(req.Cycles, req.Width, req.Seed)
	cand := func(name string) core.Candidate {
		return core.Candidate{
			Name:    name,
			MemoKey: l.Keys.RankCand(name, req),
			Estimator: core.FuncB{
				EstimatorName:  "gate-mc:" + name,
				EstimatorLevel: core.Gate,
				Fn: func(cb *budget.Budget) (float64, bool, error) {
					if l.RemoteCand != nil {
						if est, ok := l.RemoteCand(ctx, name, req); ok {
							return est.Power, est.Degraded, nil
						}
					}
					return l.evalCandStreams(cb, name, req.Width, as, bs)
				},
			},
		}
	}
	ranking := core.RankParallelMemo(b, 1, l.cache(), []core.Candidate{
		cand("adder"), cand("carry-select"), cand("subtractor"),
	})
	best, err := ranking.Best()
	if err != nil {
		// Every candidate failed; surface the first failure so the
		// caller's breaker and retry loop see the real cause (e.g. an
		// injected budget fault), not a generic message.
		return RankResponse{}, ranking[0].Err
	}
	resp := RankResponse{Best: best.Candidate.Name}
	for _, rk := range ranking {
		e := RankedEntry{
			Name:     rk.Candidate.Name,
			Power:    rk.Estimate.Power,
			Model:    rk.Estimate.Model,
			Degraded: rk.Estimate.Degraded,
			Cached:   rk.Cached,
		}
		if rk.Err != nil {
			e.Err = rk.Err.Error()
		}
		resp.Ranking = append(resp.Ranking, e)
	}
	return resp, nil
}

// BDD builds the function's BDD under b and returns the exact node
// count, or — when the request allows it — a sampled estimate after a
// budget trip. tt must be the materialized table of req (callers
// validate and key on it first); a nil tt is materialized here.
func (l *Local) BDD(_ context.Context, b *budget.Budget, req BDDRequest, tt []bool) (BDDOutcome, error) {
	if tt == nil {
		var err error
		if tt, err = TruthTable(req.Function, req.Vars); err != nil {
			return BDDOutcome{}, err
		}
	}
	// The service owns the manager (rather than delegating to
	// bdd.SizeEstimate) so its unique/ITE table traffic can be observed
	// by the serving layer — including partial builds that a budget trip
	// abandoned.
	m := bdd.New(req.Vars)
	m.SetBudget(b)
	root, err := m.BuildTT(tt, req.Vars)
	if l.OnBDDStats != nil {
		l.OnBDDStats(m.Stats())
	}
	switch {
	case err == nil:
		return BDDOutcome{Nodes: m.NodeCount(root)}, nil
	case req.AllowDegraded && errors.Is(err, budget.ErrExceeded):
		return BDDOutcome{Nodes: bdd.SampledSize(tt, req.Vars), Degraded: true}, nil
	default:
		return BDDOutcome{}, err
	}
}

// Predict fits the requested macro-model and compares it against
// budgeted ground truth. Every simulation runs over the cached compiled
// artifact and is charged to b: the training trace, the evaluation
// trace, and — for the input–output model — the module's output words,
// taken from the same packed passes rather than a gate-by-gate walk.
// The evaluation trace is memoized when a cache is supplied (keyed on
// the module's netlist structure and the exact streams), so requesting
// the four model types for one circuit performs one evaluation
// simulation, not four. Responses are bit-identical to fitting with
// macromodel.FitX, GroundTruth and PredictStream.
func (l *Local) Predict(_ context.Context, b *budget.Budget, req PredictRequest) (PredictResponse, error) {
	art, err := l.artifactFor(req.Circuit, req.Width)
	if err != nil {
		return PredictResponse{}, err
	}
	return l.predictWith(b, art, req)
}

// predictWith is Predict with the artifact already resolved, so a batch
// group fitting many models over one circuit looks it up once.
func (l *Local) predictWith(b *budget.Budget, art *artifact, req PredictRequest) (PredictResponse, error) {
	if err := CheckCycles(req.Train); err != nil {
		return PredictResponse{}, err
	}
	if err := CheckCycles(req.Eval); err != nil {
		return PredictResponse{}, err
	}
	if !KnownModel(req.Model) {
		return PredictResponse{}, hlerr.Errorf("service.predict", "unknown model %q", req.Model)
	}
	mod := art.mod
	io := req.Model == "io"
	trainA, trainB := OperandStreams(req.Train, req.Width, req.Seed)
	evalA, evalB := OperandStreams(req.Eval, req.Width, req.Seed+1)
	truth, trainOuts, err := l.characterize(b, art, trainA, trainB, io)
	if err != nil {
		return PredictResponse{}, err
	}
	var m macromodel.Model
	switch req.Model {
	case "pfa":
		m, err = macromodel.FitPFAFrom(mod, trainA, trainB, truth)
	case "dbt":
		m, err = macromodel.FitDBTFrom(mod, trainA, trainB, truth)
	case "bitwise":
		m, err = macromodel.FitBitwiseFrom(mod, trainA, trainB, truth)
	default: // "io"
		m, err = macromodel.FitIOFrom(mod, trainA, trainB, truth, trainOuts)
	}
	if err != nil {
		return PredictResponse{}, err
	}
	// A leader computing the evaluation trace for the IO model keeps its
	// output words; a memo hit (or a concurrent leader) leaves them to a
	// separate pass below.
	var evalOuts []uint64
	evalTruth, err := macromodel.GroundTruthMemo(l.cache(), b, art.truthKey, sim.ZeroDelay, evalA, evalB, func() ([]float64, error) {
		t, outs, err := l.characterize(b, art, evalA, evalB, io)
		evalOuts = outs
		return t, err
	})
	if err != nil {
		return PredictResponse{}, err
	}
	var predicted float64
	if io {
		if evalOuts == nil {
			if _, evalOuts, err = l.characterize(b, art, evalA, evalB, true); err != nil {
				return PredictResponse{}, err
			}
		}
		predicted = m.(*macromodel.IOModel).PredictWords(evalA, evalB, evalOuts)
	} else {
		predicted = m.PredictStream(evalA, evalB)
	}
	measured := macromodel.MeanAbs(evalTruth)
	errPct := 0.0
	if measured != 0 {
		errPct = 100 * abs(predicted-measured) / measured
	}
	return PredictResponse{
		Circuit: req.Circuit, Model: req.Model,
		Predicted: predicted, Measured: measured, AbsErrPct: errPct,
	}, nil
}

// characterize simulates one characterization stream over the artifact
// under b and returns its per-cycle ground truth — the warm-up cycle
// dropped, exactly as macromodel.GroundTruth reports it — and, when
// outs is set, the module's settled output word per stream element.
// Workers: 1 keeps the run on one shard charged to b directly; a lean
// run computes the trace in the same canonical order as a full one.
// The run takes a promoted evaluator under the usual codegen policy and
// counts toward the tier counters, but not toward promotion hotness: a
// predict is two or three runs, and counting them would let one predict
// stand in for several serves.
func (l *Local) characterize(b *budget.Budget, art *artifact, as, bs []uint64, outs bool) ([]float64, []uint64, error) {
	mod := art.mod
	res, err := art.comp.Run(b, func(c int) []bool { return mod.InputVector(as[c], bs[c]) }, len(as), sim.RunOptions{
		Workers:   1,
		Words:     func(c int) uint64 { return mod.InputWord(as[c], bs[c]) },
		Lean:      !outs,
		NoCodegen: l.noCodegen(b.FaultArmed()),
	})
	if err != nil {
		return nil, nil, err
	}
	l.noteTier(res.Kernel)
	truth := res.PerCycleCap[1:]
	if !outs {
		return truth, nil, nil
	}
	words := make([]uint64, len(res.Outputs))
	for i, o := range res.Outputs {
		words[i] = mod.OutputWord(o)
	}
	return truth, words, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
