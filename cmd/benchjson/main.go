// Command benchjson runs the key serial-vs-parallel benchmarks of the
// estimation engine in-process (via testing.Benchmark, no go-test
// subprocess) and emits a machine-readable BENCH_<date>.json snapshot.
// CI runs it as a non-blocking job so the repository accumulates a
// performance trajectory; compare files across dates to see whether a
// change moved the hot paths.
//
// Usage:
//
//	benchjson                 # full workload, writes BENCH_<date>.json
//	benchjson -short          # reduced workload (CI smoke)
//	benchjson -out perf.json  # explicit output path
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"
	"time"

	"hlpower"
	"hlpower/internal/budget"
	"hlpower/internal/core"
	"hlpower/internal/isa"
	"hlpower/internal/jobs"
	"hlpower/internal/logic"
	"hlpower/internal/powerd"
	"hlpower/internal/recipe"
	"hlpower/internal/rtlib"
	"hlpower/internal/service"
	"hlpower/internal/sim"
	"hlpower/internal/trace"
)

// Entry is one benchmark measurement.
type Entry struct {
	Name  string `json:"name"`
	Iters int    `json:"iterations"`
	// Variant classifies the execution engine: "serial" (interpreted,
	// one goroutine), "packed" (64-lane bit-packed kernel, one
	// goroutine), "fused" (compiled superinstruction artifact),
	// "codegen" (specialized per-netlist evaluator), or "parallel"
	// (sharded worker pool).
	Variant string `json:"variant,omitempty"`
	// GOMAXPROCS is the scheduler width this entry was measured under.
	// Parallel variants are always recorded pinned to 1 (the scheduling
	// floor, comparable across hosts) and, when the host has more than
	// one CPU, again at the real core count under a "/mp" name suffix —
	// the pair separates algorithmic overhead from actual scaling.
	GOMAXPROCS  int     `json:"gomaxprocs,omitempty"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// MBPerSec is workload throughput in lane-evaluations (one bit per
	// gate per cycle), comparable across kernels of the same workload.
	MBPerSec float64 `json:"mb_per_sec,omitempty"`
	// Speedup is ns_per_op(serial baseline) / ns_per_op(this), present
	// on packed and parallel variants.
	Speedup float64 `json:"speedup_vs_serial,omitempty"`
}

// Snapshot is the whole BENCH_<date>.json document.
type Snapshot struct {
	Date       string `json:"date"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Short      bool   `json:"short_workload"`
	// Note flags readings that need interpretation — e.g. on a
	// GOMAXPROCS=1 host the parallel variants necessarily read ≈1.0×,
	// which is a property of the machine, not a regression.
	Note    string  `json:"note,omitempty"`
	Results []Entry `json:"results"`
}

func main() {
	short := flag.Bool("short", false, "reduced workload for CI smoke runs")
	out := flag.String("out", "", "output path (default BENCH_<date>.json)")
	flag.Parse()

	cycles, width, cands := 8192, 8, 8
	if *short {
		cycles, width, cands = 2048, 6, 4
	}

	snap := Snapshot{
		Date:       time.Now().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Short:      *short,
	}
	// Parallel variants are measured pinned to gomaxprocs=1 and, when
	// the host has real cores, again at full width ("/mp" entries).
	multiProcs := 0
	if n := runtime.NumCPU(); n > 1 {
		multiProcs = n
	}
	if multiProcs == 0 {
		snap.Note = "single-cpu host: the multi-core (\"/mp\") pass is skipped and parallel " +
			"speedup_vs_serial ≈1.0x is expected (no cores to shard across), not a " +
			"regression; the packed variant is the single-thread speedup to watch"
	}
	path := *out
	if path == "" {
		path = "BENCH_" + snap.Date + ".json"
	}

	simNet, simInputs, simWords := mcWorkload(width, cycles)
	simBytes := int64(cycles) * int64(len(simNet.Gates)) / 8
	serialSim := measure("sim/serial", simBytes, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(simNet, simInputs, cycles, sim.Options{}); err != nil {
				fatal(err)
			}
		}
	})
	serialSim.Variant = "serial"
	snap.Results = append(snap.Results, serialSim)

	packedSim := measure("sim/packed", simBytes, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := sim.RunPacked(simNet, simInputs, cycles, sim.Options{})
			if err != nil {
				fatal(err)
			}
			if res.Kernel != sim.KernelPacked {
				fatal(fmt.Errorf("packed run fell back: %q", res.Fallback))
			}
		}
	})
	packedSim.Variant = "packed"
	packedSim.Speedup = round3(serialSim.NsPerOp / packedSim.NsPerOp)
	snap.Results = append(snap.Results, packedSim)

	// Fused superinstruction tier: the same workload through a compiled
	// artifact — fusion pass, pooled scratch, pre-packed input words,
	// lean result — the steady-state shape powerd serves. Compilation
	// happens outside the timed region (the serving layer amortizes it
	// across requests via the artifact cache); the power figure is
	// asserted bit-identical to the unfused kernel before timing starts.
	simComp, err := sim.Compile(simNet, sim.Options{})
	if err != nil {
		fatal(err)
	}
	if simComp.FusedAbsorbed() == 0 {
		fatal(fmt.Errorf("sim/fused: multiplier workload fused nothing"))
	}
	unfusedRef, err := sim.RunPacked(simNet, simInputs, cycles, sim.Options{})
	if err != nil {
		fatal(err)
	}
	fusedRef, err := simComp.Run(nil, simInputs, cycles, sim.RunOptions{Workers: 1, Words: simWords, Lean: true})
	if err != nil {
		fatal(err)
	}
	if math.Float64bits(unfusedRef.Power()) != math.Float64bits(fusedRef.Power()) {
		fatal(fmt.Errorf("sim/fused: power %v differs from unfused %v", fusedRef.Power(), unfusedRef.Power()))
	}
	runFused := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := simComp.Run(nil, simInputs, cycles, sim.RunOptions{Workers: 1, Words: simWords, Lean: true, NoCodegen: true})
			if err != nil {
				fatal(err)
			}
			if res.Kernel != sim.KernelFused {
				fatal(fmt.Errorf("fused run fell back: %q", res.Fallback))
			}
		}
	}

	// Codegen tier: the same artifact after hotness promotion — a
	// specialized evaluator with dispatch resolved at build time and
	// extraction baked against the concrete net layout. The build runs
	// outside the timed region (the serving layer promotes hot artifacts
	// on a background goroutine), and the power figure is asserted
	// bit-identical to the fused tier before timing starts.
	if err := simComp.BuildCodegen(); err != nil {
		fatal(err)
	}
	codegenRef, err := simComp.Run(nil, simInputs, cycles, sim.RunOptions{Workers: 1, Words: simWords, Lean: true})
	if err != nil {
		fatal(err)
	}
	if codegenRef.Kernel != sim.KernelCodegen {
		fatal(fmt.Errorf("sim/codegen: served by %q after promotion", codegenRef.Kernel))
	}
	if math.Float64bits(codegenRef.Power()) != math.Float64bits(fusedRef.Power()) {
		fatal(fmt.Errorf("sim/codegen: power %v differs from fused %v", codegenRef.Power(), fusedRef.Power()))
	}
	runCodegen := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := simComp.Run(nil, simInputs, cycles, sim.RunOptions{Workers: 1, Words: simWords, Lean: true})
			if err != nil {
				fatal(err)
			}
			if res.Kernel != sim.KernelCodegen {
				fatal(fmt.Errorf("codegen run fell back: %q", res.Fallback))
			}
		}
	}

	// The fused/codegen gap is small relative to host noise, so the pair
	// is measured as interleaved passes with the minimum kept per entry —
	// min is the least-noise estimator for a CPU-bound kernel, and
	// interleaving keeps slow host phases from landing on one side.
	const tierPasses = 3
	fusedSim := measure("sim/fused", simBytes, runFused)
	codegenSim := measure("sim/codegen", simBytes, runCodegen)
	for p := 1; p < tierPasses; p++ {
		if e := measure("sim/fused", simBytes, runFused); e.NsPerOp < fusedSim.NsPerOp {
			fusedSim = e
		}
		if e := measure("sim/codegen", simBytes, runCodegen); e.NsPerOp < codegenSim.NsPerOp {
			codegenSim = e
		}
	}
	fusedSim.Variant = "fused"
	fusedSim.Speedup = round3(serialSim.NsPerOp / fusedSim.NsPerOp)
	snap.Results = append(snap.Results, fusedSim)
	codegenSim.Variant = "codegen"
	codegenSim.Speedup = round3(serialSim.NsPerOp / codegenSim.NsPerOp)
	snap.Results = append(snap.Results, codegenSim)

	for _, w := range []int{2, 4, 8} {
		w := w
		for _, procs := range procsPasses(multiProcs) {
			e := measureAt(procs, mpName(fmt.Sprintf("sim/parallel/w%d", w), procs, multiProcs), simBytes, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_, err := sim.RunParallel(nil, simNet, simInputs, cycles, sim.ParallelOptions{Workers: w})
					if err != nil {
						fatal(err)
					}
				}
			})
			e.Variant = "parallel"
			e.Speedup = round3(serialSim.NsPerOp / e.NsPerOp)
			snap.Results = append(snap.Results, e)
		}
	}

	candidates := rankCandidates(cands, width, cycles/8)
	serialRank := measure("rank/serial", 0, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.RankBudget(nil, candidates).Best(); err != nil {
				fatal(err)
			}
		}
	})
	serialRank.Variant = "serial"
	snap.Results = append(snap.Results, serialRank)
	for _, w := range []int{2, 4, 8} {
		w := w
		for _, procs := range procsPasses(multiProcs) {
			e := measureAt(procs, mpName(fmt.Sprintf("rank/parallel/w%d", w), procs, multiProcs), 0, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.RankParallel(nil, w, candidates).Best(); err != nil {
						fatal(err)
					}
				}
			})
			e.Variant = "parallel"
			e.Speedup = round3(serialRank.NsPerOp / e.NsPerOp)
			snap.Results = append(snap.Results, e)
		}
	}

	// Content-addressed memoization on the simulate path: memo/miss
	// computes under a unique key every op, memo/hit replays one warm
	// entry (key derivation + lookup + defensive clone). The hit entry's
	// speedup field is miss/hit — the factor a repeated request saves.
	memoMod := rtlib.NewMultiplier(6)
	const memoCycles = 512
	memoProv := func(salt uint64) func(int) []bool {
		rng := rand.New(rand.NewSource(int64(salt)))
		as := trace.Uniform(memoCycles, 6, rng)
		bs := trace.Uniform(memoCycles, 6, rng)
		return func(c int) []bool { return memoMod.InputVector(as[c], bs[c]) }
	}
	memoCache := hlpower.NewEstimateCache(hlpower.EstimateCacheOptions{})
	salt := uint64(2)
	missEntry := measure("memo/miss", 0, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			prov := memoProv(salt)
			salt++
			if _, err := hlpower.SimulateMemo(memoCache, nil, memoMod.Net, prov, memoCycles, hlpower.SimOptions{}); err != nil {
				fatal(err)
			}
		}
	})
	missEntry.Variant = "miss"
	snap.Results = append(snap.Results, missEntry)
	warmProv := memoProv(1)
	if _, err := hlpower.SimulateMemo(memoCache, nil, memoMod.Net, warmProv, memoCycles, hlpower.SimOptions{}); err != nil {
		fatal(err)
	}
	hitEntry := measure("memo/hit", 0, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := hlpower.SimulateMemo(memoCache, nil, memoMod.Net, warmProv, memoCycles, hlpower.SimOptions{}); err != nil {
				fatal(err)
			}
		}
	})
	hitEntry.Variant = "hit"
	hitEntry.Speedup = round3(missEntry.NsPerOp / hitEntry.NsPerOp)
	snap.Results = append(snap.Results, hitEntry)

	// Batched pipeline vs looped single calls, over a live in-process
	// powerd server with memoization disabled so both sides pay the real
	// estimation path every time. The workload is the design-space-sweep
	// shape the batch API exists for: gate-level Monte Carlo items
	// fanned across three circuits and three cycle depths with distinct
	// seeds (so nothing collapses to a cache hit). Looped, every request
	// rebuilds and recompiles its netlist before simulating; fused, the
	// three (circuit, width) groups compile once and the items ride the
	// shared artifact. batch/looped fires one HTTP request per item
	// while batch/fused submits the identical items as one /v1/batch.
	// The speedup field on the fused entry is the requests-per-second
	// factor the batch pipeline buys — the >10x acceptance gate of the
	// batched-pipeline work.
	batchN := 1024
	if *short {
		batchN = 256
	}
	batchSrv := powerd.NewServer(powerd.Config{
		QueueDepth:     256,
		RequestTimeout: time.Minute,
		MemoMaxBytes:   -1,
	})
	batchTS := httptest.NewServer(batchSrv.Handler())
	batchClient := batchTS.Client()
	batchCircuits := []struct {
		name  string
		width int
	}{{"adder", 6}, {"multiplier", 6}, {"subtractor", 6}}
	batchCycles := []int{16, 32, 64}
	batchItems := make([]service.BatchItem, batchN)
	for i := range batchItems {
		c := batchCircuits[i%len(batchCircuits)]
		batchItems[i] = service.BatchItem{Op: service.OpSimulate, Simulate: &service.SimulateRequest{
			Circuit: c.name, Width: c.width, Cycles: batchCycles[(i/len(batchCircuits))%len(batchCycles)], Seed: int64(i),
		}}
	}
	batchPost := func(path string, body any) []byte {
		buf, err := json.Marshal(body)
		if err != nil {
			fatal(err)
		}
		resp, err := batchClient.Post(batchTS.URL+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			fatal(err)
		}
		if resp.StatusCode != 200 {
			fatal(fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, data))
		}
		return data
	}
	// Sanity-check the fused path answers every item before timing it.
	var fusedResp service.BatchResponse
	if err := json.Unmarshal(batchPost("/v1/batch", service.BatchRequest{Items: batchItems}), &fusedResp); err != nil {
		fatal(err)
	}
	if len(fusedResp.Items) != batchN || fusedResp.Failed != 0 {
		fatal(fmt.Errorf("batch warmup: %d items, %d failed", len(fusedResp.Items), fusedResp.Failed))
	}
	loopedEntry := measure("batch/looped", 0, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, it := range batchItems {
				batchPost("/v1/simulate", it.Simulate)
			}
		}
	})
	loopedEntry.Variant = "looped"
	snap.Results = append(snap.Results, loopedEntry)
	fusedEntry := measure("batch/fused", 0, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			batchPost("/v1/batch", service.BatchRequest{Items: batchItems})
		}
	})
	fusedEntry.Variant = "fused"
	fusedEntry.Speedup = round3(loopedEntry.NsPerOp / fusedEntry.NsPerOp)
	snap.Results = append(snap.Results, fusedEntry)
	batchTS.Close()

	// Macro-model characterization (/v1/predict's compute) per model
	// type over the service's cached compiled artifact. No memo, so every
	// op simulates the training and evaluation streams and fits the
	// model; the shape matches the predicts of perfbench's mixed-repeat
	// workload. allocs_per_op is the figure benchcompare gates.
	predictSvc := &service.Local{}
	for _, model := range []string{"pfa", "dbt", "bitwise", "io"} {
		req := service.PredictRequest{Circuit: "multiplier", Width: 8, Model: model, Train: 256, Eval: 256, Seed: 1}
		if _, err := predictSvc.Predict(context.Background(), nil, req); err != nil {
			fatal(err)
		}
		e := measure("service/predict/"+model, 0, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := predictSvc.Predict(context.Background(), nil, req); err != nil {
					fatal(err)
				}
			}
		})
		e.Variant = "fused"
		snap.Results = append(snap.Results, e)
	}

	// Durable-job engine: per-candidate cost of one recipe-search step
	// through the full engine path — candidate derivation, pass
	// application, functional-equivalence verification, power
	// evaluation, and amortized checkpointing. Each op runs a complete
	// job under a distinct seed (content-keyed ids would otherwise
	// replay); ns_per_op is per candidate, not per job.
	optCands := cands
	optMgr := jobs.New(jobs.Config{Workers: 1, QueueDepth: 4, CheckpointEvery: 4})
	optSeed := int64(1)
	optEntry := measure("optimize/recipe-step", 0, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st, err := optMgr.Submit(jobs.Params{
				Spec:          recipe.Spec{Kind: recipe.KindCircuit, Circuit: "adder", Width: 4},
				Seed:          optSeed,
				Candidates:    optCands,
				EvalCycles:    128,
				VerifyCycles:  64,
				MaxRecipeLen:  4,
				EvalSteps:     50_000_000,
				CheckInterval: 256,
			})
			if err != nil {
				fatal(err)
			}
			optSeed++
			ch, ok := optMgr.Done(st.ID)
			if !ok {
				fatal(fmt.Errorf("job %s not attached", st.ID))
			}
			<-ch
			final, _ := optMgr.Get(st.ID)
			if final == nil || final.Phase != jobs.PhaseDone {
				fatal(fmt.Errorf("job %s did not complete: %+v", st.ID, final))
			}
		}
	})
	optEntry.NsPerOp = round3(optEntry.NsPerOp / float64(optCands))
	snap.Results = append(snap.Results, optEntry)
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), time.Minute)
	if err := optMgr.Drain(drainCtx); err != nil {
		fatal(err)
	}
	cancelDrain()

	// Architectural simulator per-step cost over the predecoded
	// dispatch tables; ns_per_op here is per retired instruction, not
	// per program run.
	prog, err := isa.DotProduct(64)
	if err != nil {
		fatal(err)
	}
	isaCfg := isa.DefaultConfig()
	warmMachine := isa.NewMachine(isaCfg)
	isaState, _, err := warmMachine.Run(prog, false)
	if err != nil {
		fatal(err)
	}
	isaEntry := measure("isa/step", 0, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := isa.NewMachine(isaCfg)
			if _, _, err := m.Run(prog, false); err != nil {
				fatal(err)
			}
		}
	})
	isaEntry.NsPerOp = round3(isaEntry.NsPerOp / float64(isaState.Instructions))
	snap.Results = append(snap.Results, isaEntry)

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d benchmarks, GOMAXPROCS=%d)\n", path, len(snap.Results), snap.GOMAXPROCS)
	for _, e := range snap.Results {
		if e.Speedup > 0 {
			fmt.Printf("  %-20s %12.0f ns/op %8d allocs/op  %5.2fx\n", e.Name, e.NsPerOp, e.AllocsPerOp, e.Speedup)
		} else {
			fmt.Printf("  %-20s %12.0f ns/op %8d allocs/op\n", e.Name, e.NsPerOp, e.AllocsPerOp)
		}
	}
	if snap.Note != "" {
		fmt.Println("note:", snap.Note)
	}
}

// procsPasses lists the scheduler widths to measure a parallel variant
// under: always the pinned gomaxprocs=1 floor, plus the host's real
// core count when it has one (multiProcs=0 means single-cpu host).
func procsPasses(multiProcs int) []int {
	if multiProcs > 1 {
		return []int{1, multiProcs}
	}
	return []int{1}
}

// mpName suffixes the multi-core pass so both passes coexist in one
// snapshot and benchcompare diffs them by like-for-like name.
func mpName(base string, procs, multiProcs int) string {
	if procs == multiProcs && procs > 1 {
		return base + "/mp"
	}
	return base
}

// measureAt runs one benchmark pinned to the given GOMAXPROCS,
// restoring the ambient value afterwards, and records the width on the
// entry.
func measureAt(procs int, name string, bytes int64, fn func(b *testing.B)) Entry {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	e := measure(name, bytes, fn)
	e.GOMAXPROCS = procs
	return e
}

// measure runs one benchmark function in-process. bytes is the data
// volume one op processes (0 to skip throughput reporting).
func measure(name string, bytes int64, fn func(b *testing.B)) Entry {
	r := testing.Benchmark(func(b *testing.B) {
		if bytes > 0 {
			b.SetBytes(bytes)
		}
		fn(b)
	})
	e := Entry{
		Name:        name,
		Iters:       r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
	}
	if bytes > 0 && r.NsPerOp() > 0 {
		e.MBPerSec = round3(float64(bytes) / float64(r.NsPerOp()) * 1e9 / (1 << 20))
	}
	return e
}

// mcWorkload builds the Monte Carlo simulation workload: a
// combinational array multiplier under a seeded random vector stream,
// in both per-cycle-vector and packed-word form (bit i of a cycle's
// word is input i, the packed kernel's layout).
func mcWorkload(width, cycles int) (*logic.Netlist, sim.InputProvider, sim.WordInputs) {
	m := rtlib.NewMultiplier(width)
	rng := rand.New(rand.NewSource(99))
	ins := 2 * width
	words := make([]uint64, cycles)
	vectors := make([][]bool, cycles)
	for c := range vectors {
		v := make([]bool, ins)
		for i := range v {
			v[i] = rng.Intn(2) == 1
			if v[i] {
				words[c] |= 1 << uint(i)
			}
		}
		vectors[c] = v
	}
	return m.Net, sim.VectorInputs(vectors), func(c int) uint64 { return words[c] }
}

// rankCandidates builds a candidate set whose estimators each run a
// gate-level simulation, the per-candidate evaluation shape of the
// design-improvement loop. Each candidate's netlist is compiled once
// outside the ranking loop — mirroring the serving layer, where
// candidates resolve through the shared artifact cache — so the timed
// region is pure kernel execution over pooled scratch: Workers:1
// forces the single-shard path whose direct budget charging matches
// the former one-shot RunPackedBudget semantics.
func rankCandidates(count, width, cycles int) []core.Candidate {
	var out []core.Candidate
	for i := 0; i < count; i++ {
		n, inputs, words := mcWorkload(width, cycles)
		comp, err := sim.Compile(n, sim.Options{})
		if err != nil {
			fatal(err)
		}
		name := fmt.Sprintf("cand-%d", i)
		out = append(out, core.Candidate{
			Name: name,
			Estimator: core.FuncB{
				EstimatorName: name, EstimatorLevel: core.Gate,
				Fn: func(b *budget.Budget) (float64, bool, error) {
					res, err := comp.Run(b, inputs, cycles, sim.RunOptions{Workers: 1, Words: words, Lean: true})
					if err != nil {
						return 0, false, err
					}
					return res.Power(), false, nil
				},
			},
		})
	}
	return out
}

func round3(v float64) float64 { return float64(int(v*1000+0.5)) / 1000 }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
