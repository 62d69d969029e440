package macromodel

import (
	"fmt"

	"hlpower/internal/bitutil"
	"hlpower/internal/rtlib"
	"hlpower/internal/sim"
	"hlpower/internal/stats"
)

// CycleAccurateModel is the Wu et al. statistically designed macro-model
// [44]: a small set of power-critical variables chosen by forward
// stepwise regression with a partial-F test, from a candidate pool of
// per-bit toggles, per-bit values, and aggregate input/output activities.
// The equation form is unique per module, matching the paper's "variables
// used for each module are unique to that module type".
type CycleAccurateModel struct {
	ModuleName   string
	Selected     []int // indices into the candidate feature vector
	Beta         []float64
	WidthA       int
	WidthB       int
	Correlations bool // Qiu [45] spatial-correlation candidate terms
	outFn        func(a, b uint64) uint64
}

// candidateFeatures builds the full candidate vector for one cycle:
// [per-bit toggles (wa+wb), per-bit current values (wa+wb), total input
// Hamming, total output Hamming]. When correlations is set, the pool is
// extended with the Qiu et al. [45] spatial-correlation terms: products
// of adjacent toggle pairs (order two) and triples (order three).
func candidateFeatures(wa, wb int, correlations bool, outFn func(a, b uint64) uint64, aPrev, bPrev, aCur, bCur uint64) []float64 {
	n := 2*(wa+wb) + 2
	f := make([]float64, wa+wb, n)
	bitwiseFeatures(f, wa, wb, aPrev, bPrev, aCur, bCur)
	toggles := f[:wa+wb]
	for i := 0; i < wa; i++ {
		if bitutil.Bit(aCur, i) {
			f = append(f, 1)
		} else {
			f = append(f, 0)
		}
	}
	for i := 0; i < wb; i++ {
		if bitutil.Bit(bCur, i) {
			f = append(f, 1)
		} else {
			f = append(f, 0)
		}
	}
	f = append(f, float64(bitutil.Hamming(aPrev, aCur)+bitutil.Hamming(bPrev, bCur)))
	f = append(f, float64(bitutil.Hamming(outFn(aPrev, bPrev), outFn(aCur, bCur))))
	if correlations {
		for i := 0; i+1 < len(toggles); i++ {
			f = append(f, toggles[i]*toggles[i+1])
		}
		for i := 0; i+2 < len(toggles); i++ {
			f = append(f, toggles[i]*toggles[i+1]*toggles[i+2])
		}
	}
	return f
}

// FitCycleAccurate characterizes the stepwise model. maxVars bounds the
// selected variable count (the paper reports ~8 suffices for 5–10%
// average error); fEnter is the partial-F entry threshold (typically 4).
func FitCycleAccurate(mod *rtlib.Module, trainA, trainB []uint64, maxVars int, fEnter float64, delay sim.DelayModel) (*CycleAccurateModel, error) {
	return fitCycleAccurate(mod, trainA, trainB, maxVars, fEnter, delay, false)
}

// FitCycleAccurateCorrelated extends the candidate pool with the Qiu et
// al. spatial-correlation terms before stepwise selection.
func FitCycleAccurateCorrelated(mod *rtlib.Module, trainA, trainB []uint64, maxVars int, fEnter float64, delay sim.DelayModel) (*CycleAccurateModel, error) {
	return fitCycleAccurate(mod, trainA, trainB, maxVars, fEnter, delay, true)
}

func fitCycleAccurate(mod *rtlib.Module, trainA, trainB []uint64, maxVars int, fEnter float64, delay sim.DelayModel, correlations bool) (*CycleAccurateModel, error) {
	truth, err := GroundTruth(mod, trainA, trainB, delay)
	if err != nil {
		return nil, err
	}
	outFn, err := functionalOutput(mod)
	if err != nil {
		return nil, err
	}
	wa, wb := len(mod.A), len(mod.B)
	probe := candidateFeatures(wa, wb, correlations, outFn, 0, 0, 0, 0)
	nFeat := len(probe)
	cols := make([][]float64, nFeat)
	for c := range cols {
		cols[c] = make([]float64, len(truth))
	}
	for i := range truth {
		var bp, bc uint64
		if wb > 0 {
			bp, bc = trainB[i], trainB[i+1]
		}
		feat := candidateFeatures(wa, wb, correlations, outFn, trainA[i], bp, trainA[i+1], bc)
		for c := range feat {
			cols[c][i] = feat[c]
		}
	}
	res, err := stats.Stepwise(cols, truth, fEnter, maxVars)
	if err != nil {
		return nil, fmt.Errorf("macromodel: stepwise fit: %w", err)
	}
	return &CycleAccurateModel{
		ModuleName:   mod.Name,
		Selected:     res.Selected,
		Beta:         res.Fit.Beta,
		WidthA:       wa,
		WidthB:       wb,
		Correlations: correlations,
		outFn:        outFn,
	}, nil
}

func (m *CycleAccurateModel) Name() string { return "cycle-accurate" }

func (m *CycleAccurateModel) PredictCycle(aPrev, bPrev, aCur, bCur uint64) float64 {
	feat := candidateFeatures(m.WidthA, m.WidthB, m.Correlations, m.outFn, aPrev, bPrev, aCur, bCur)
	p := m.Beta[0]
	for j, c := range m.Selected {
		p += m.Beta[1+j] * feat[c]
	}
	return p
}

func (m *CycleAccurateModel) PredictStream(as, bs []uint64) float64 {
	return streamAverage(m, as, bs)
}

// Errors quantifies a model against gate-level ground truth on a test
// stream: the relative error of the average power and the mean relative
// per-cycle error (the paper's "average power" and "cycle power" error
// metrics).
type Errors struct {
	AvgPowerErr float64
	CycleErr    float64
}

// Evaluate measures both error metrics for a model on a test stream.
func Evaluate(m Model, mod *rtlib.Module, testA, testB []uint64, delay sim.DelayModel) (Errors, error) {
	truth, err := GroundTruth(mod, testA, testB, delay)
	if err != nil {
		return Errors{}, err
	}
	avgTruth := stats.Mean(truth)
	avgPred := m.PredictStream(testA, testB)
	var cycleErr float64
	n := 0
	for i := range truth {
		var bp, bc uint64
		if len(testB) > 0 {
			bp, bc = testB[i], testB[i+1]
		}
		pred := m.PredictCycle(testA[i], bp, testA[i+1], bc)
		if avgTruth > 0 {
			cycleErr += abs(pred-truth[i]) / avgTruth
			n++
		}
	}
	if n > 0 {
		cycleErr /= float64(n)
	}
	return Errors{
		AvgPowerErr: stats.RelError(avgPred, avgTruth),
		CycleErr:    cycleErr,
	}, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
