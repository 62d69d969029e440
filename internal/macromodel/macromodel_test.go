package macromodel

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"hlpower/internal/rtlib"
	"hlpower/internal/sim"
	"hlpower/internal/stats"
	"hlpower/internal/trace"
)

const testWidth = 8

func trainStreams(seed int64, n int) ([]uint64, []uint64) {
	rng := rand.New(rand.NewSource(seed))
	return trace.Uniform(n, testWidth, rng), trace.Uniform(n, testWidth, rng)
}

func TestGroundTruthLength(t *testing.T) {
	mod := rtlib.NewAdder(testWidth)
	as, bs := trainStreams(1, 50)
	truth, err := GroundTruth(mod, as, bs, sim.ZeroDelay)
	if err != nil {
		t.Fatal(err)
	}
	if len(truth) != 49 {
		t.Errorf("truth length = %d, want 49", len(truth))
	}
	for _, c := range truth {
		if c < 0 {
			t.Error("negative per-cycle capacitance")
		}
	}
}

func TestPFAConstant(t *testing.T) {
	mod := rtlib.NewAdder(testWidth)
	as, bs := trainStreams(2, 400)
	m, err := FitPFA(mod, as, bs, sim.ZeroDelay)
	if err != nil {
		t.Fatal(err)
	}
	if m.CapPerOp <= 0 {
		t.Fatal("PFA constant must be positive")
	}
	if m.PredictCycle(0, 0, 1, 1) != m.PredictCycle(5, 5, 5, 5) {
		t.Error("PFA must be data independent")
	}
	// On random data (like training) PFA should be accurate on average.
	ta, tb := trainStreams(3, 400)
	e, err := Evaluate(m, mod, ta, tb, sim.ZeroDelay)
	if err != nil {
		t.Fatal(err)
	}
	if e.AvgPowerErr > 0.1 {
		t.Errorf("PFA avg error on random data = %v, want < 0.1", e.AvgPowerErr)
	}
}

func TestPFAMissesDataDependence(t *testing.T) {
	// The known PFA weakness (§II-C1): a constant operand halves the real
	// power but PFA predicts the same value.
	mod := rtlib.NewMultiplier(testWidth)
	as, bs := trainStreams(4, 300)
	m, err := FitPFA(mod, as, bs, sim.ZeroDelay)
	if err != nil {
		t.Fatal(err)
	}
	ones := trace.Constant(300, testWidth, 1)
	e, err := Evaluate(m, mod, ones, as, sim.ZeroDelay)
	if err != nil {
		t.Fatal(err)
	}
	if e.AvgPowerErr < 0.3 {
		t.Errorf("expected PFA to fail badly on constant-operand stream, err = %v", e.AvgPowerErr)
	}
}

func TestDBTBeatsPFAOnCorrelatedData(t *testing.T) {
	mod := rtlib.NewAdder(testWidth)
	rng := rand.New(rand.NewSource(5))
	// Train both on mixed data so DBT sees sign transitions.
	trainA := trace.AR1(1500, testWidth, 0.95, 0.1, rng)
	trainB := trace.AR1(1500, testWidth, 0.95, 0.1, rng)
	pfa, err := FitPFA(mod, trainA, trainB, sim.ZeroDelay)
	if err != nil {
		t.Fatal(err)
	}
	dbt, err := FitDBT(mod, trainA, trainB, sim.ZeroDelay)
	if err != nil {
		t.Fatal(err)
	}
	// Test on fresh correlated data.
	testA := trace.AR1(800, testWidth, 0.95, 0.1, rng)
	testB := trace.AR1(800, testWidth, 0.95, 0.1, rng)
	ePFA, err := Evaluate(pfa, mod, testA, testB, sim.ZeroDelay)
	if err != nil {
		t.Fatal(err)
	}
	eDBT, err := Evaluate(dbt, mod, testA, testB, sim.ZeroDelay)
	if err != nil {
		t.Fatal(err)
	}
	if eDBT.CycleErr >= ePFA.CycleErr {
		t.Errorf("DBT cycle error %v should beat PFA %v on correlated data",
			eDBT.CycleErr, ePFA.CycleErr)
	}
}

func TestBitwiseAccurateOnAdder(t *testing.T) {
	mod := rtlib.NewAdder(testWidth)
	as, bs := trainStreams(6, 2000)
	m, err := FitBitwise(mod, as, bs, sim.ZeroDelay)
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := trainStreams(7, 500)
	e, err := Evaluate(m, mod, ta, tb, sim.ZeroDelay)
	if err != nil {
		t.Fatal(err)
	}
	if e.AvgPowerErr > 0.05 {
		t.Errorf("bitwise avg error = %v, want < 5%%", e.AvgPowerErr)
	}
	if e.CycleErr > 0.35 {
		t.Errorf("bitwise cycle error = %v, want < 35%%", e.CycleErr)
	}
}

func TestIOModelBeatsBitwiseOnMultiplier(t *testing.T) {
	// Deep logic nesting: output activity is the missing predictor that
	// the input-only models cannot see (§II-C1).
	mod := rtlib.NewMultiplier(testWidth)
	as, bs := trainStreams(8, 1500)
	bw, err := FitBitwise(mod, as, bs, sim.ZeroDelay)
	if err != nil {
		t.Fatal(err)
	}
	io, err := FitIO(mod, as, bs, sim.ZeroDelay)
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := trainStreams(9, 500)
	eBW, err := Evaluate(bw, mod, ta, tb, sim.ZeroDelay)
	if err != nil {
		t.Fatal(err)
	}
	eIO, err := Evaluate(io, mod, ta, tb, sim.ZeroDelay)
	if err != nil {
		t.Fatal(err)
	}
	if eIO.CycleErr >= eBW.CycleErr*1.1 {
		t.Errorf("IO cycle error %v should be comparable or better than bitwise %v",
			eIO.CycleErr, eBW.CycleErr)
	}
}

func TestTable3DReasonable(t *testing.T) {
	mod := rtlib.NewAdder(testWidth)
	as, bs := trainStreams(10, 4000)
	m, err := FitTable3D(mod, as, bs, 6, sim.ZeroDelay)
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := trainStreams(11, 500)
	e, err := Evaluate(m, mod, ta, tb, sim.ZeroDelay)
	if err != nil {
		t.Fatal(err)
	}
	if e.AvgPowerErr > 0.1 {
		t.Errorf("3D table avg error = %v, want < 10%%", e.AvgPowerErr)
	}
}

func TestTable3DBinsValidation(t *testing.T) {
	mod := rtlib.NewAdder(4)
	as, bs := trainStreams(12, 50)
	if _, err := FitTable3D(mod, as, bs, 1, sim.ZeroDelay); err == nil {
		t.Error("expected error for 1 bin")
	}
}

func TestCycleAccurateSelectsFewVariables(t *testing.T) {
	mod := rtlib.NewAdder(testWidth)
	as, bs := trainStreams(13, 3000)
	m, err := FitCycleAccurate(mod, as, bs, 8, 4.0, sim.ZeroDelay)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Selected) == 0 || len(m.Selected) > 8 {
		t.Fatalf("selected %d variables, want 1..8", len(m.Selected))
	}
	ta, tb := trainStreams(14, 600)
	e, err := Evaluate(m, mod, ta, tb, sim.ZeroDelay)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: ~5-10% average, 10-20% cycle error with ~8 variables.
	if e.AvgPowerErr > 0.10 {
		t.Errorf("cycle-accurate avg error = %v, want <= 10%%", e.AvgPowerErr)
	}
	if e.CycleErr > 0.40 {
		t.Errorf("cycle-accurate cycle error = %v", e.CycleErr)
	}
}

func TestCensusMatchesStreamAverage(t *testing.T) {
	mod := rtlib.NewAdder(testWidth)
	as, bs := trainStreams(15, 500)
	m, err := FitBitwise(mod, as, bs, sim.ZeroDelay)
	if err != nil {
		t.Fatal(err)
	}
	c := Census(m, as, bs)
	if math.Abs(c.Estimate-m.PredictStream(as, bs)) > 1e-9 {
		t.Error("census should equal the stream-average prediction")
	}
	if c.ModelEvals != len(as)-1 {
		t.Errorf("census evals = %d, want %d", c.ModelEvals, len(as)-1)
	}
}

func TestSamplerCheaperAndClose(t *testing.T) {
	mod := rtlib.NewAdder(testWidth)
	as, bs := trainStreams(16, 5000)
	m, err := FitBitwise(mod, as, bs, sim.ZeroDelay)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	census := Census(m, as, bs)
	sampler := Sampler(m, as, bs, 30, 3, rng)
	if sampler.ModelEvals >= census.ModelEvals/10 {
		t.Errorf("sampler evals %d should be far below census %d",
			sampler.ModelEvals, census.ModelEvals)
	}
	if stats.RelError(sampler.Estimate, census.Estimate) > 0.08 {
		t.Errorf("sampler estimate %v too far from census %v",
			sampler.Estimate, census.Estimate)
	}
}

func TestAdaptiveCorrectsBias(t *testing.T) {
	// Train the macro-model on uniform data, test on a heavily correlated
	// stream: census is biased; the adaptive regression estimator with a
	// small gate-level sample removes most of the bias.
	mod := rtlib.NewAdder(testWidth)
	as, bs := trainStreams(18, 1500)
	m, err := FitPFA(mod, as, bs, sim.ZeroDelay)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(19))
	testA := trace.AR1(2000, testWidth, 0.98, 0.05, rng)
	testB := trace.AR1(2000, testWidth, 0.98, 0.05, rng)
	truth, err := GroundTruth(mod, testA, testB, sim.ZeroDelay)
	if err != nil {
		t.Fatal(err)
	}
	trueMean := stats.Mean(truth)

	census := Census(m, testA, testB)
	adaptive, err := Adaptive(m, mod, testA, testB, 60, rng, sim.ZeroDelay)
	if err != nil {
		t.Fatal(err)
	}
	censusErr := stats.RelError(census.Estimate, trueMean)
	adaptiveErr := stats.RelError(adaptive.Estimate, trueMean)
	if censusErr < 0.15 {
		t.Fatalf("test setup: census should be badly biased, err = %v", censusErr)
	}
	if adaptiveErr > censusErr/2 {
		t.Errorf("adaptive err %v should halve census err %v", adaptiveErr, censusErr)
	}
	if adaptive.GateLevelCycles > 100 {
		t.Errorf("adaptive used %d gate-level cycles, want small", adaptive.GateLevelCycles)
	}
}

func TestModelAccuracyLadder(t *testing.T) {
	// The §II-C1 accuracy-vs-cost ladder: on correlated test data, the
	// richer models should not be worse than PFA.
	mod := rtlib.NewAdder(testWidth)
	rng := rand.New(rand.NewSource(20))
	trainA := trace.Mixed(trace.Uniform(1000, testWidth, rng), trace.AR1(1000, testWidth, 0.9, 0.2, rng))
	trainB := trace.Mixed(trace.Uniform(1000, testWidth, rng), trace.AR1(1000, testWidth, 0.9, 0.2, rng))
	pfa, err := FitPFA(mod, trainA, trainB, sim.ZeroDelay)
	if err != nil {
		t.Fatal(err)
	}
	bw, err := FitBitwise(mod, trainA, trainB, sim.ZeroDelay)
	if err != nil {
		t.Fatal(err)
	}
	testA := trace.AR1(800, testWidth, 0.9, 0.2, rng)
	testB := trace.AR1(800, testWidth, 0.9, 0.2, rng)
	ePFA, err := Evaluate(pfa, mod, testA, testB, sim.ZeroDelay)
	if err != nil {
		t.Fatal(err)
	}
	eBW, err := Evaluate(bw, mod, testA, testB, sim.ZeroDelay)
	if err != nil {
		t.Fatal(err)
	}
	if eBW.CycleErr > ePFA.CycleErr {
		t.Errorf("bitwise cycle error %v should beat PFA %v", eBW.CycleErr, ePFA.CycleErr)
	}
}

func TestShortStreams(t *testing.T) {
	mod := rtlib.NewAdder(4)
	if _, err := GroundTruth(mod, []uint64{1}, []uint64{1}, sim.ZeroDelay); err == nil {
		t.Error("expected error for single-vector stream")
	}
	m := &PFAModel{CapPerOp: 5}
	if c := Census(m, []uint64{1}, []uint64{1}); c.Estimate != 0 {
		t.Error("census of single vector should be zero")
	}
}

func TestLUTModelInterpolates(t *testing.T) {
	mod := rtlib.NewAdder(testWidth)
	as, bs := trainStreams(21, 4000)
	m, err := FitLUT(mod, as, bs, 8, sim.ZeroDelay)
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := trainStreams(22, 600)
	e, err := Evaluate(m, mod, ta, tb, sim.ZeroDelay)
	if err != nil {
		t.Fatal(err)
	}
	if e.AvgPowerErr > 0.08 {
		t.Errorf("LUT avg error = %v, want < 8%%", e.AvgPowerErr)
	}
	// Interpolation must be continuous-ish: neighbouring activities give
	// close predictions.
	p1 := m.PredictCycle(0, 0, 0x0F, 0)
	p2 := m.PredictCycle(0, 0, 0x1F, 0)
	if p1 < 0 || p2 < 0 {
		t.Error("negative prediction")
	}
	if math.Abs(p1-p2) > m.globalMean {
		t.Errorf("adjacent activities predict wildly different caps: %v vs %v", p1, p2)
	}
}

func TestLUTValidation(t *testing.T) {
	mod := rtlib.NewAdder(4)
	as, bs := trainStreams(23, 50)
	if _, err := FitLUT(mod, as, bs, 1, sim.ZeroDelay); err == nil {
		t.Error("grid of 1 must fail")
	}
}

func TestCorrelatedModelAtLeastAsGood(t *testing.T) {
	// On the carry-chain adder, adjacent-bit toggle products capture the
	// ripple cost; the correlated candidate pool must not lose to the
	// plain one (stepwise only adds terms that pass the F test).
	mod := rtlib.NewAdder(testWidth)
	as, bs := trainStreams(24, 3000)
	plain, err := FitCycleAccurate(mod, as, bs, 10, 4.0, sim.ZeroDelay)
	if err != nil {
		t.Fatal(err)
	}
	corr, err := FitCycleAccurateCorrelated(mod, as, bs, 10, 4.0, sim.ZeroDelay)
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := trainStreams(25, 700)
	ep, err := Evaluate(plain, mod, ta, tb, sim.ZeroDelay)
	if err != nil {
		t.Fatal(err)
	}
	ec, err := Evaluate(corr, mod, ta, tb, sim.ZeroDelay)
	if err != nil {
		t.Fatal(err)
	}
	if ec.CycleErr > ep.CycleErr*1.05 {
		t.Errorf("correlated cycle error %v worse than plain %v", ec.CycleErr, ep.CycleErr)
	}
}

func TestCompactedStreamPreservesPowerEstimate(t *testing.T) {
	// The [36]-[38] claim: simulating the compacted surrogate instead of
	// the full stream gives nearly the same average power at a fraction
	// of the cycles.
	rng := rand.New(rand.NewSource(26))
	mod := rtlib.NewAdder(testWidth)
	fullA := trace.AR1(12000, testWidth, 0.95, 0.15, rng)
	fullB := trace.AR1(12000, testWidth, 0.95, 0.15, rng)
	shortA := trace.CompactMarkov(fullA, testWidth, 1200, rng)
	shortB := trace.CompactMarkov(fullB, testWidth, 1200, rng)
	ef, err := mod.EnergyPerPair(fullA, fullB, sim.ZeroDelay)
	if err != nil {
		t.Fatal(err)
	}
	es, err := mod.EnergyPerPair(shortA, shortB, sim.ZeroDelay)
	if err != nil {
		t.Fatal(err)
	}
	if rel := stats.RelError(es, ef); rel > 0.08 {
		t.Errorf("compacted-stream power %v vs full %v: error %v too large", es, ef, rel)
	}
}

// TestFitFromRejectsMismatchedTruth: the From fits check the supplied
// trace (and the IO model's output words) against the stream length
// instead of indexing past either.
func TestFitFromRejectsMismatchedTruth(t *testing.T) {
	mod := rtlib.NewAdder(testWidth)
	as, bs := trainStreams(8, 20)
	truth, err := GroundTruth(mod, as, bs, sim.ZeroDelay)
	if err != nil {
		t.Fatal(err)
	}
	short := truth[1:]
	if _, err := FitPFAFrom(mod, as, bs, short); err == nil {
		t.Error("PFA accepted a short trace")
	}
	if _, err := FitDBTFrom(mod, as, bs, short); err == nil {
		t.Error("DBT accepted a short trace")
	}
	if _, err := FitBitwiseFrom(mod, as, bs, short); err == nil {
		t.Error("bitwise accepted a short trace")
	}
	outs := make([]uint64, len(as))
	if _, err := FitIOFrom(mod, as, bs, short, outs); err == nil {
		t.Error("IO accepted a short trace")
	}
	if _, err := FitIOFrom(mod, as, bs, truth, outs[1:]); err == nil {
		t.Error("IO accepted short output words")
	}
}

// TestIOPredictWordsMatchesStream: fed the functional output words,
// PredictWords reproduces PredictStream bit for bit, and a model from
// FitIOFrom (no evaluator supplied) builds its own for PredictCycle.
func TestIOPredictWordsMatchesStream(t *testing.T) {
	mod := rtlib.NewMultiplier(6)
	rng := rand.New(rand.NewSource(9))
	as, bs := trace.Uniform(300, 6, rng), trace.Uniform(300, 6, rng)
	res, err := mod.SimulateStream(as, bs, sim.ZeroDelay)
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]uint64, len(res.Outputs))
	for i, o := range res.Outputs {
		outs[i] = mod.OutputWord(o)
	}
	fitted, err := FitIO(mod, as, bs, sim.ZeroDelay)
	if err != nil {
		t.Fatal(err)
	}
	from, err := FitIOFrom(mod, as, bs, res.PerCycleCap[1:], outs)
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := trace.Uniform(129, 6, rng), trace.Uniform(129, 6, rng)
	tres, err := mod.SimulateStream(ta, tb, sim.ZeroDelay)
	if err != nil {
		t.Fatal(err)
	}
	touts := make([]uint64, len(tres.Outputs))
	for i, o := range tres.Outputs {
		touts[i] = mod.OutputWord(o)
	}
	want := fitted.PredictStream(ta, tb)
	for name, got := range map[string]float64{
		"FitIO/PredictWords":      fitted.PredictWords(ta, tb, touts),
		"FitIOFrom/PredictStream": from.PredictStream(ta, tb),
		"FitIOFrom/PredictWords":  from.PredictWords(ta, tb, touts),
	} {
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s = %v, want PredictStream's %v", name, got, want)
		}
	}
}

// TestIOModelConcurrentFirstUse: goroutines sharing a FitIOFrom model
// race to build its output evaluator; every one gets the same figure.
func TestIOModelConcurrentFirstUse(t *testing.T) {
	mod := rtlib.NewAdder(testWidth)
	as, bs := trainStreams(10, 200)
	fitted, err := FitIO(mod, as, bs, sim.ZeroDelay)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := GroundTruth(mod, as, bs, sim.ZeroDelay)
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]uint64, len(as))
	for i := range as {
		outs[i] = fitted.out(as[i], bs[i])
	}
	m, err := FitIOFrom(mod, as, bs, truth, outs)
	if err != nil {
		t.Fatal(err)
	}
	want := fitted.PredictStream(as, bs)
	got := make([]float64, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = m.PredictStream(as, bs)
		}()
	}
	wg.Wait()
	for g, v := range got {
		if math.Float64bits(v) != math.Float64bits(want) {
			t.Errorf("goroutine %d: %v, want %v", g, v, want)
		}
	}
}
