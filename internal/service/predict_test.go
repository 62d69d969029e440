package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"hlpower/internal/budget"
	"hlpower/internal/macromodel"
	"hlpower/internal/memo"
	"hlpower/internal/sim"
)

var predictCircuits = []string{"adder", "carry-select", "multiplier", "subtractor", "comparator"}
var predictModels = []string{"pfa", "dbt", "bitwise", "io"}

// predictReference computes a predict response the library way: FitX
// over a one-shot GroundTruth simulation, the evaluation trace from a
// second GroundTruth, and the model's own PredictStream (the IO model's
// outputs by a gate-by-gate zero-delay walk). The artifact path must
// match it bit for bit.
func predictReference(req PredictRequest) (PredictResponse, error) {
	mod, err := ModuleFor(req.Circuit, req.Width)
	if err != nil {
		return PredictResponse{}, err
	}
	trainA, trainB := OperandStreams(req.Train, req.Width, req.Seed)
	evalA, evalB := OperandStreams(req.Eval, req.Width, req.Seed+1)
	var m macromodel.Model
	switch req.Model {
	case "pfa":
		m, err = macromodel.FitPFA(mod, trainA, trainB, sim.ZeroDelay)
	case "dbt":
		m, err = macromodel.FitDBT(mod, trainA, trainB, sim.ZeroDelay)
	case "bitwise":
		m, err = macromodel.FitBitwise(mod, trainA, trainB, sim.ZeroDelay)
	case "io":
		m, err = macromodel.FitIO(mod, trainA, trainB, sim.ZeroDelay)
	default:
		return PredictResponse{}, fmt.Errorf("unknown model %q", req.Model)
	}
	if err != nil {
		return PredictResponse{}, err
	}
	truth, err := macromodel.GroundTruth(mod, evalA, evalB, sim.ZeroDelay)
	if err != nil {
		return PredictResponse{}, err
	}
	measured := macromodel.MeanAbs(truth)
	predicted := m.PredictStream(evalA, evalB)
	errPct := 0.0
	if measured != 0 {
		errPct = 100 * math.Abs(predicted-measured) / measured
	}
	return PredictResponse{Circuit: req.Circuit, Model: req.Model,
		Predicted: predicted, Measured: measured, AbsErrPct: errPct}, nil
}

// sameOutcome reports a mismatch between two predict outcomes: the
// same error text (a fit on a degenerate stream fails identically on
// both paths), or Float64bits-identical figures.
func sameOutcome(got PredictResponse, gotErr error, want PredictResponse, wantErr error) error {
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			return fmt.Errorf("error %v, want %v", gotErr, wantErr)
		}
		return nil
	}
	return samePredict(got, want)
}

// batchOutcome unpacks one batch item result into a predict outcome.
func batchOutcome(r BatchItemResult) (PredictResponse, error) {
	if r.Error != nil {
		return PredictResponse{}, errors.New(r.Error.Message)
	}
	return *r.Predict, nil
}

// samePredict reports a Float64bits mismatch between two responses.
func samePredict(got, want PredictResponse) error {
	if got.Circuit != want.Circuit || got.Model != want.Model ||
		math.Float64bits(got.Predicted) != math.Float64bits(want.Predicted) ||
		math.Float64bits(got.Measured) != math.Float64bits(want.Measured) ||
		math.Float64bits(got.AbsErrPct) != math.Float64bits(want.AbsErrPct) {
		return fmt.Errorf("got %+v, want %+v", got, want)
	}
	return nil
}

// TestPredictBitIdenticalToReference: single requests — memo off, memo
// on (cold, then a warm evaluation trace), and promoted codegen
// artifacts — and batch items all reproduce the reference figures bit
// for bit, over every circuit and model and cycle counts that are not
// multiples of the kernel's 64-lane word.
func TestPredictBitIdenticalToReference(t *testing.T) {
	type shape struct{ width, train, eval int }
	shapes := []shape{{4, 2, 2}, {5, 63, 65}, {7, 130, 70}, {8, 300, 129}}
	if testing.Short() {
		shapes = shapes[1:3]
	}
	cache := memo.New(memo.Options{MaxBytes: 8 << 20})
	plain := &Local{CodegenAfter: -1}
	memoized := &Local{Cache: func() *memo.Cache { return cache }, CodegenAfter: -1}
	// Every artifact of this service is promoted before its first
	// predict, so its runs take the codegen tier (a negative threshold
	// would also keep runs off a promoted evaluator).
	promoted := &Local{CodegenAfter: math.MaxInt32}
	for _, c := range predictCircuits {
		for _, sh := range shapes {
			art, err := promoted.artifactFor(c, sh.width)
			if err != nil {
				t.Fatal(err)
			}
			if err := art.comp.BuildCodegen(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range predictCircuits {
		for si := 0; si < 3*len(shapes); si++ {
			sh := shapes[si%len(shapes)]
			var items []BatchItem
			var wants []PredictResponse
			var wantErrs []error
			for _, model := range predictModels {
				req := PredictRequest{Circuit: c, Width: sh.width, Model: model,
					Train: sh.train, Eval: sh.eval, Seed: int64(17*si + 3)}
				want, wantErr := predictReference(req)
				for name, svc := range map[string]*Local{"plain": plain, "memo": memoized, "codegen": promoted} {
					got, err := svc.Predict(context.Background(), nil, req)
					if err := sameOutcome(got, err, want, wantErr); err != nil {
						t.Fatalf("%s %+v: %v", name, req, err)
					}
				}
				items = append(items, BatchItem{Op: OpPredict, Predict: &req})
				wants = append(wants, want)
				wantErrs = append(wantErrs, wantErr)
			}
			resp := plain.Batch(context.Background(), BatchRequest{Items: items}, BatchHooks{})
			for i, r := range resp.Items {
				got, err := batchOutcome(r)
				if err := sameOutcome(got, err, wants[i], wantErrs[i]); err != nil {
					t.Fatalf("batch item %+v: %v", *items[i].Predict, err)
				}
			}
		}
	}
	if st := promoted.KernelStats(); st.Tiers["codegen"] == 0 || st.Tiers["fused"] != 0 {
		t.Fatalf("promoted service did not serve predicts on the codegen tier: %+v", st.Tiers)
	}
	if st := cache.Stats(); st.Hits == 0 {
		t.Fatalf("evaluation traces never shared through the memo: %+v", st)
	}
}

// TestPredictTruthKeyCached: the artifact's cached ground-truth key
// prefix yields byte-identical keys to encoding the netlist afresh, so
// memo entries written before and after caching it stay shared.
func TestPredictTruthKeyCached(t *testing.T) {
	var svc Local
	for _, c := range predictCircuits {
		art, err := svc.artifactFor(c, 6)
		if err != nil {
			t.Fatal(err)
		}
		as, bs := OperandStreams(100, 6, 9)
		enc := memo.NewEnc()
		enc.String("macromodel/ground-truth/v1")
		memo.HashNetlist(enc, art.mod.Net)
		enc.Int(int(sim.ZeroDelay))
		enc.Uint64s(as)
		enc.Uint64s(bs)
		if got, want := macromodel.TruthKey(art.truthKey, sim.ZeroDelay, as, bs), enc.Key(); got != want {
			t.Fatalf("%s: cached-prefix key %v, fresh key %v", c, got, want)
		}
	}
}

// TestPredictChargesTrainingToBudget: the training simulation is
// charged to the request budget, so a train-heavy predict with a tiny
// evaluation stream exhausts a step allowance its evaluation alone
// fits under.
func TestPredictChargesTrainingToBudget(t *testing.T) {
	var svc Local
	small := PredictRequest{Circuit: "adder", Width: 6, Model: "io", Train: 64, Eval: 64, Seed: 1}
	b := budget.New()
	if _, err := svc.Predict(context.Background(), b, small); err != nil {
		t.Fatal(err)
	}
	perRun := b.StepsUsed() / 3 // train, eval, eval outputs (no memo)
	if perRun <= 0 {
		t.Fatalf("StepsUsed=%d: predict charged nothing", b.StepsUsed())
	}
	heavy := small
	heavy.Train = 64 * 64
	tight := budget.New(budget.WithMaxSteps(8*perRun), budget.WithCheckInterval(64))
	if _, err := svc.Predict(context.Background(), tight, heavy); !errors.Is(err, budget.ErrExceeded) {
		t.Fatalf("train-heavy predict under %d steps: err=%v, want ErrExceeded", 8*perRun, err)
	}
}

// FuzzPredictEquivalence: for any servable request, the artifact path
// (single request and batch item) is Float64bits-identical to the
// reference path.
func FuzzPredictEquivalence(f *testing.F) {
	f.Add(uint8(0), uint8(4), uint8(3), uint16(63), uint16(65), int64(1))
	f.Add(uint8(2), uint8(7), uint8(1), uint16(2), uint16(2), int64(-5))
	f.Add(uint8(4), uint8(12), uint8(2), uint16(300), uint16(129), int64(42))
	svc := &Local{CodegenAfter: 2}
	f.Fuzz(func(t *testing.T, ci, width, mi uint8, train, eval uint16, seed int64) {
		req := PredictRequest{
			Circuit: predictCircuits[int(ci)%len(predictCircuits)],
			Width:   2 + int(width)%11, // 2..12
			Model:   predictModels[int(mi)%len(predictModels)],
			Train:   2 + int(train)%399,
			Eval:    2 + int(eval)%399,
			Seed:    seed,
		}
		want, wantErr := predictReference(req)
		got, err := svc.Predict(context.Background(), nil, req)
		if err := sameOutcome(got, err, want, wantErr); err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		resp := svc.Batch(context.Background(), BatchRequest{Items: []BatchItem{{Op: OpPredict, Predict: &req}}}, BatchHooks{})
		got, err = batchOutcome(resp.Items[0])
		if err := sameOutcome(got, err, want, wantErr); err != nil {
			t.Fatalf("batch %+v: %v", req, err)
		}
	})
}
