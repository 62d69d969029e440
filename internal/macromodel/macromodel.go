// Package macromodel implements the RT-level power macro-models of
// §II-C1 in increasing order of accuracy and cost: the constant power-
// factor-approximation (PFA) model, the Landman–Rabaey dual-bit-type
// model, the bitwise data model, the input–output data model, the
// Gupta–Najm three-dimensional table model, and the Wu et al. cycle-
// accurate stepwise-regression model. Every model is characterized
// against gate-level simulation of a module from rtlib and then predicts
// switched capacitance per cycle for new streams.
package macromodel

import (
	"errors"
	"fmt"
	"sync"

	"hlpower/internal/bitutil"
	"hlpower/internal/budget"
	"hlpower/internal/logic"
	"hlpower/internal/memo"
	"hlpower/internal/rtlib"
	"hlpower/internal/sim"
	"hlpower/internal/stats"
)

// Model predicts the average switched capacitance per cycle of a
// characterized module for an operand stream.
type Model interface {
	Name() string
	// PredictCycle estimates the switched capacitance of one cycle given
	// the previous and current operand pairs.
	PredictCycle(aPrev, bPrev, aCur, bCur uint64) float64
	// PredictStream estimates the average switched capacitance per cycle
	// over a whole stream.
	PredictStream(as, bs []uint64) float64
}

// streamAverage implements PredictStream via PredictCycle.
func streamAverage(m Model, as, bs []uint64) float64 {
	if len(as) < 2 {
		return 0
	}
	var total float64
	for i := 1; i < len(as); i++ {
		var bp, bc uint64
		if len(bs) > 0 {
			bp, bc = bs[i-1], bs[i]
		}
		total += m.PredictCycle(as[i-1], bp, as[i], bc)
	}
	return total / float64(len(as)-1)
}

// GroundTruth measures the per-cycle switched capacitance of the module
// on the given stream by gate-level simulation. The first cycle (warm-up
// from the baseline) is excluded, matching PredictStream's pair count.
func GroundTruth(mod *rtlib.Module, as, bs []uint64, model sim.DelayModel) ([]float64, error) {
	res, err := mod.SimulateStream(as, bs, model)
	if err != nil {
		return nil, err
	}
	if len(res.PerCycleCap) < 2 {
		return nil, errors.New("macromodel: stream too short")
	}
	return res.PerCycleCap[1:], nil
}

// truthKeyTag versions the ground-truth memo key schema.
const truthKeyTag = "macromodel/ground-truth/v1"

// TruthKeyPrefix returns the part of the ground-truth memo key the
// module fixes: the key schema tag and the netlist structure. Hashing a
// netlist walks every gate, so callers that characterize one module
// repeatedly encode the prefix once and derive each key with TruthKey.
func TruthKeyPrefix(mod *rtlib.Module) []byte {
	enc := memo.NewEnc()
	enc.String(truthKeyTag)
	memo.HashNetlist(enc, mod.Net)
	return enc.Data()
}

// TruthKey derives the ground-truth memo key of one operand stream from
// a TruthKeyPrefix: the netlist structure, the delay model, and the
// exact streams.
func TruthKey(prefix []byte, model sim.DelayModel, as, bs []uint64) memo.Key {
	// One tagged word for the model, then two tagged length words and
	// the stream words.
	enc := memo.EncFrom(prefix, 3*9+8*(len(as)+len(bs)))
	enc.Int(int(model))
	enc.Uint64s(as)
	enc.Uint64s(bs)
	return enc.Key()
}

// GroundTruthMemo memoizes a per-cycle capacitance trace by content:
// the key is TruthKey(prefix, model, as, bs), and truth computes the
// trace on a miss. Characterizing several macro-models against the same
// module and stream therefore performs one gate-level simulation
// instead of one per model. Each call — hit or miss — returns its own
// copy of the trace, so callers may mutate the result freely.
//
// With a nil cache, or while a fault-injection plan is armed on the
// budget, it just calls truth: chaos results are never stored and never
// served.
func GroundTruthMemo(c *memo.Cache, b *budget.Budget, prefix []byte, model sim.DelayModel, as, bs []uint64, truth func() ([]float64, error)) ([]float64, error) {
	if c == nil || b.FaultArmed() {
		return truth()
	}
	v, _, err := c.Do(TruthKey(prefix, model, as, bs), func() (any, int64, bool, error) {
		t, err := truth()
		if err != nil {
			return nil, 0, false, err
		}
		return t, int64(len(t))*8 + 24, true, nil
	})
	if err != nil {
		return nil, err
	}
	return append([]float64(nil), v.([]float64)...), nil
}

// checkTruth verifies a supplied ground-truth trace has one entry per
// stream pair, as GroundTruth returns it.
func checkTruth(trainA []uint64, truth []float64) error {
	if len(trainA) < 2 || len(truth) != len(trainA)-1 {
		return fmt.Errorf("macromodel: %d ground-truth cycles for a %d-element stream, want %d",
			len(truth), len(trainA), len(trainA)-1)
	}
	return nil
}

// designMatrix returns n zeroed regression rows of k features sharing
// one backing array.
func designMatrix(n, k int) [][]float64 {
	flat := make([]float64, n*k)
	X := make([][]float64, n)
	for i := range X {
		X[i] = flat[i*k : (i+1)*k : (i+1)*k]
	}
	return X
}

// MeanAbs returns the mean of xs (handy for averaging ground truth).
func MeanAbs(xs []float64) float64 { return stats.Mean(xs) }

// ---------------------------------------------------------------------
// PFA: constant model.

// PFAModel is the power-factor-approximation technique [39]: a single
// experimentally determined constant per module activation.
type PFAModel struct {
	ModuleName string
	CapPerOp   float64
}

// FitPFA characterizes the constant as the mean switched capacitance
// under pseudorandom data.
func FitPFA(mod *rtlib.Module, trainA, trainB []uint64, delay sim.DelayModel) (*PFAModel, error) {
	truth, err := GroundTruth(mod, trainA, trainB, delay)
	if err != nil {
		return nil, err
	}
	return FitPFAFrom(mod, trainA, trainB, truth)
}

// FitPFAFrom is FitPFA against a ground-truth trace measured elsewhere
// (one entry per stream pair, as GroundTruth returns it).
func FitPFAFrom(mod *rtlib.Module, trainA, trainB []uint64, truth []float64) (*PFAModel, error) {
	if err := checkTruth(trainA, truth); err != nil {
		return nil, err
	}
	return &PFAModel{ModuleName: mod.Name, CapPerOp: stats.Mean(truth)}, nil
}

func (m *PFAModel) Name() string { return "pfa" }

func (m *PFAModel) PredictCycle(aPrev, bPrev, aCur, bCur uint64) float64 { return m.CapPerOp }

func (m *PFAModel) PredictStream(as, bs []uint64) float64 { return m.CapPerOp }

// ---------------------------------------------------------------------
// Dual bit type model.

// DBTModel is the Landman–Rabaey dual-bit-type model [40]: low-order
// bits are treated as uniform white noise with a single capacitance
// coefficient Cu, and the sign region is characterized by coefficients
// per sign-transition class (++, +-, -+, --), all per operand.
type DBTModel struct {
	ModuleName string
	Width      int
	Breakpoint int // bits >= Breakpoint form the sign region
	// Coefficients: intercept, Cu (per low-region toggle), and the four
	// sign-class coefficients per operand pair.
	Intercept float64
	Cu        float64
	CSign     [4]float64 // indexed by signClass
}

// signClass maps a (prevSign, curSign) pair to 0..3: ++, +-, -+, --.
func signClass(prevNeg, curNeg bool) int {
	idx := 0
	if prevNeg {
		idx += 2
	}
	if curNeg {
		idx++
	}
	return idx
}

// dbtFeatures writes the five DBT regressors of one cycle into the
// zeroed f.
func dbtFeatures(f []float64, width, bp int, aPrev, bPrev, aCur, bCur uint64, hasB bool) {
	lowMask := bitutil.Mask(bp)
	f[0] = float64(bitutil.OnesCount((aPrev ^ aCur) & lowMask))
	if hasB {
		f[0] += float64(bitutil.OnesCount((bPrev ^ bCur) & lowMask))
	}
	count := func(prev, cur uint64) {
		pn := bitutil.Bit(prev, width-1)
		cn := bitutil.Bit(cur, width-1)
		f[1+signClass(pn, cn)]++
	}
	count(aPrev, aCur)
	if hasB {
		count(bPrev, bCur)
	}
}

// FitDBT characterizes the dual-bit-type model. The breakpoint between
// the white-noise and sign regions is detected from the training stream
// as the lowest bit whose activity falls below half the LSB activity
// (for uniform data the sign region is just the top bit).
func FitDBT(mod *rtlib.Module, trainA, trainB []uint64, delay sim.DelayModel) (*DBTModel, error) {
	truth, err := GroundTruth(mod, trainA, trainB, delay)
	if err != nil {
		return nil, err
	}
	return FitDBTFrom(mod, trainA, trainB, truth)
}

// FitDBTFrom is FitDBT against a ground-truth trace measured elsewhere.
func FitDBTFrom(mod *rtlib.Module, trainA, trainB []uint64, truth []float64) (*DBTModel, error) {
	if err := checkTruth(trainA, truth); err != nil {
		return nil, err
	}
	w := mod.Width()
	acts := bitutil.BitActivities(trainA, w)
	if len(trainB) > 0 {
		bacts := bitutil.BitActivities(trainB, w)
		for i := range acts {
			acts[i] = (acts[i] + bacts[i]) / 2
		}
	}
	bp := w - 1 // at least the top bit is "sign"
	for b := w - 1; b >= 1; b-- {
		if acts[b] < acts[0]/2 {
			bp = b
		} else {
			break
		}
	}
	hasB := len(trainB) > 0
	// No intercept: the four sign-class counts sum to the operand count
	// every cycle, so a constant column would be collinear with them.
	X := designMatrix(len(truth), 5)
	for i := range truth {
		var bp0, bc uint64
		if hasB {
			bp0, bc = trainB[i], trainB[i+1]
		}
		dbtFeatures(X[i], w, bp, trainA[i], bp0, trainA[i+1], bc, hasB)
	}
	fit, err := stats.OLS(X, truth)
	if err != nil {
		return nil, fmt.Errorf("macromodel: DBT fit: %w", err)
	}
	m := &DBTModel{ModuleName: mod.Name, Width: w, Breakpoint: bp, Cu: fit.Beta[0]}
	copy(m.CSign[:], fit.Beta[1:5])
	return m, nil
}

func (m *DBTModel) Name() string { return "dual-bit-type" }

func (m *DBTModel) PredictCycle(aPrev, bPrev, aCur, bCur uint64) float64 {
	var feat [5]float64
	dbtFeatures(feat[:], m.Width, m.Breakpoint, aPrev, bPrev, aCur, bCur, true)
	p := m.Intercept + m.Cu*feat[0] // Intercept stays 0 from fitting
	for i := 0; i < 4; i++ {
		p += m.CSign[i] * feat[1+i]
	}
	return p
}

func (m *DBTModel) PredictStream(as, bs []uint64) float64 { return streamAverage(m, as, bs) }

// ---------------------------------------------------------------------
// Bitwise data model.

// BitwiseModel assigns a regression capacitance to every input pin:
// cap = c0 + Σ C_i·E_i where E_i is pin i's toggle this cycle.
type BitwiseModel struct {
	ModuleName string
	WidthA     int
	WidthB     int
	Intercept  float64
	Coef       []float64 // per input bit: a bits then b bits
}

// bitwiseFeatures writes the per-pin toggle indicators of one cycle —
// a bits then b bits — into the zeroed f.
func bitwiseFeatures(f []float64, wa, wb int, aPrev, bPrev, aCur, bCur uint64) {
	da := aPrev ^ aCur
	for i := 0; i < wa; i++ {
		if bitutil.Bit(da, i) {
			f[i] = 1
		}
	}
	db := bPrev ^ bCur
	for i := 0; i < wb; i++ {
		if bitutil.Bit(db, i) {
			f[wa+i] = 1
		}
	}
}

// FitBitwise characterizes the per-pin capacitances by least squares.
func FitBitwise(mod *rtlib.Module, trainA, trainB []uint64, delay sim.DelayModel) (*BitwiseModel, error) {
	truth, err := GroundTruth(mod, trainA, trainB, delay)
	if err != nil {
		return nil, err
	}
	return FitBitwiseFrom(mod, trainA, trainB, truth)
}

// FitBitwiseFrom is FitBitwise against a ground-truth trace measured
// elsewhere.
func FitBitwiseFrom(mod *rtlib.Module, trainA, trainB []uint64, truth []float64) (*BitwiseModel, error) {
	if err := checkTruth(trainA, truth); err != nil {
		return nil, err
	}
	wa := len(mod.A)
	wb := len(mod.B)
	X := designMatrix(len(truth), 1+wa+wb)
	for i := range truth {
		var bp, bc uint64
		if wb > 0 {
			bp, bc = trainB[i], trainB[i+1]
		}
		X[i][0] = 1
		bitwiseFeatures(X[i][1:], wa, wb, trainA[i], bp, trainA[i+1], bc)
	}
	fit, err := stats.OLS(X, truth)
	if err != nil {
		return nil, fmt.Errorf("macromodel: bitwise fit: %w", err)
	}
	return &BitwiseModel{ModuleName: mod.Name, WidthA: wa, WidthB: wb,
		Intercept: fit.Beta[0], Coef: fit.Beta[1:]}, nil
}

func (m *BitwiseModel) Name() string { return "bitwise" }

func (m *BitwiseModel) PredictCycle(aPrev, bPrev, aCur, bCur uint64) float64 {
	var buf [64]float64 // covers two 32-bit operands without allocating
	f := buf[:]
	if n := m.WidthA + m.WidthB; n <= len(buf) {
		f = buf[:n]
	} else {
		f = make([]float64, n)
	}
	bitwiseFeatures(f, m.WidthA, m.WidthB, aPrev, bPrev, aCur, bCur)
	p := m.Intercept
	for i, c := range m.Coef {
		p += c * f[i]
	}
	return p
}

func (m *BitwiseModel) PredictStream(as, bs []uint64) float64 { return streamAverage(m, as, bs) }

// ---------------------------------------------------------------------
// Input–output data model.

// IOModel regresses on the mean input activity and the mean (zero-delay)
// output activity: cap = c0 + CI·EI + CO·EO. Output activity comes from
// the module's functional behaviour: PredictCycle and PredictStream
// evaluate it by a zero-delay topological walk of the netlist, built on
// first use; PredictWords takes it precomputed (e.g. from a packed
// gate-level run).
type IOModel struct {
	ModuleName string
	WidthA     int
	WidthB     int
	WidthOut   int
	Intercept  float64
	CI, CO     float64

	mod     *rtlib.Module
	outOnce sync.Once
	outFn   func(a, b uint64) uint64
}

// FitIO characterizes the input–output model. The module's functional
// output is obtained by zero-delay evaluation (the "fast functional
// simulation" of [41]).
func FitIO(mod *rtlib.Module, trainA, trainB []uint64, delay sim.DelayModel) (*IOModel, error) {
	truth, err := GroundTruth(mod, trainA, trainB, delay)
	if err != nil {
		return nil, err
	}
	outFn, err := functionalOutput(mod)
	if err != nil {
		return nil, err
	}
	outs := make([]uint64, len(trainA))
	for i, a := range trainA {
		var b uint64
		if len(mod.B) > 0 {
			b = trainB[i]
		}
		outs[i] = outFn(a, b)
	}
	m, err := FitIOFrom(mod, trainA, trainB, truth, outs)
	if err != nil {
		return nil, err
	}
	m.outOnce.Do(func() { m.outFn = outFn })
	return m, nil
}

// FitIOFrom is FitIO against a ground-truth trace and the module's
// settled output word per stream element (outs[i] answers trainA[i],
// trainB[i]), both measured elsewhere — a zero-delay gate-level run
// yields both in one pass. The module's netlist must be acyclic, as it
// is whenever the trace came from simulating it: PredictCycle and
// PredictStream build their output evaluator from it on first use.
func FitIOFrom(mod *rtlib.Module, trainA, trainB []uint64, truth []float64, outs []uint64) (*IOModel, error) {
	if err := checkTruth(trainA, truth); err != nil {
		return nil, err
	}
	if len(outs) != len(trainA) {
		return nil, fmt.Errorf("macromodel: %d output words for a %d-element stream", len(outs), len(trainA))
	}
	wa, wb := len(mod.A), len(mod.B)
	X := designMatrix(len(truth), 3)
	for i := range truth {
		var bp, bc uint64
		if wb > 0 {
			bp, bc = trainB[i], trainB[i+1]
		}
		X[i][0] = 1
		X[i][1] = float64(bitutil.Hamming(trainA[i], trainA[i+1]) + bitutil.Hamming(bp, bc))
		X[i][2] = float64(bitutil.Hamming(outs[i], outs[i+1]))
	}
	fit, err := stats.OLS(X, truth)
	if err != nil {
		return nil, fmt.Errorf("macromodel: IO fit: %w", err)
	}
	return &IOModel{ModuleName: mod.Name, WidthA: wa, WidthB: wb, WidthOut: len(mod.Net.Outputs),
		Intercept: fit.Beta[0], CI: fit.Beta[1], CO: fit.Beta[2], mod: mod}, nil
}

// functionalOutput builds a closure evaluating the module's settled
// outputs by topological zero-delay evaluation.
func functionalOutput(mod *rtlib.Module) (func(a, b uint64) uint64, error) {
	order, err := mod.Net.TopoOrder()
	if err != nil {
		return nil, err
	}
	n := mod.Net
	fn := func(a, b uint64) uint64 {
		vals := make([]bool, len(n.Gates))
		for i, s := range mod.A {
			vals[s] = bitutil.Bit(a, i)
		}
		for i, s := range mod.B {
			vals[s] = bitutil.Bit(b, i)
		}
		var buf []bool
		for _, id := range order {
			g := n.Gates[id]
			if g.Kind == logic.Input || g.Kind == logic.Latch || g.Kind.IsSequential() {
				continue
			}
			buf = buf[:0]
			for _, f := range g.Fanin {
				buf = append(buf, vals[f])
			}
			vals[id] = logic.EvalGate(g.Kind, buf)
		}
		var w uint64
		for i, o := range n.Outputs {
			if vals[o] {
				w |= 1 << uint(i)
			}
		}
		return w
	}
	return fn, nil
}

// out evaluates the module's functional output word, building the
// evaluator on first use. A model is only ever fitted against a module
// whose ground truth was simulated, so its netlist is acyclic and the
// build cannot fail.
func (m *IOModel) out(a, b uint64) uint64 {
	m.outOnce.Do(func() {
		fn, err := functionalOutput(m.mod)
		if err != nil {
			panic(fmt.Sprintf("macromodel: IO model output function: %v", err))
		}
		m.outFn = fn
	})
	return m.outFn(a, b)
}

func (m *IOModel) Name() string { return "input-output" }

// cycle is the model's estimate for one cycle given its input and
// output words; every prediction path goes through it.
func (m *IOModel) cycle(aPrev, bPrev, aCur, bCur, oPrev, oCur uint64) float64 {
	ei := float64(bitutil.Hamming(aPrev, aCur) + bitutil.Hamming(bPrev, bCur))
	eo := float64(bitutil.Hamming(oPrev, oCur))
	return m.Intercept + m.CI*ei + m.CO*eo
}

func (m *IOModel) PredictCycle(aPrev, bPrev, aCur, bCur uint64) float64 {
	return m.cycle(aPrev, bPrev, aCur, bCur, m.out(aPrev, bPrev), m.out(aCur, bCur))
}

func (m *IOModel) PredictStream(as, bs []uint64) float64 { return streamAverage(m, as, bs) }

// PredictWords is PredictStream with the module's output word per
// stream element supplied (outs[i] answers as[i], bs[i]) instead of
// evaluated gate by gate. It sums the same per-cycle terms in
// streamAverage's order, so given the functional outputs it is
// bit-identical to PredictStream.
func (m *IOModel) PredictWords(as, bs, outs []uint64) float64 {
	if len(as) < 2 {
		return 0
	}
	var total float64
	for i := 1; i < len(as); i++ {
		var bp, bc uint64
		if len(bs) > 0 {
			bp, bc = bs[i-1], bs[i]
		}
		total += float64(m.cycle(as[i-1], bp, as[i], bc, outs[i-1], outs[i]))
	}
	return total / float64(len(as)-1)
}
