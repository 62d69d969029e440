package service

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"hlpower/internal/budget"
)

// batchFixture is a small heterogeneous batch covering every op, two
// simulate groups, and duplicate cells.
func batchFixture() []BatchItem {
	return []BatchItem{
		{ID: "s0", Op: OpSimulate, Simulate: &SimulateRequest{Circuit: "adder", Width: 6, Cycles: 96, Seed: 1}},
		{ID: "s1", Op: OpSimulate, Simulate: &SimulateRequest{Circuit: "adder", Width: 6, Cycles: 96, Seed: 2}},
		{ID: "m0", Op: OpSimulate, Simulate: &SimulateRequest{Circuit: "multiplier", Width: 4, Cycles: 64, Seed: 3}},
		{ID: "b0", Op: OpBDD, BDD: &BDDRequest{Function: "parity", Vars: 6}},
		{ID: "p0", Op: OpPredict, Predict: &PredictRequest{Circuit: "adder", Width: 6, Model: "pfa", Train: 64, Eval: 64, Seed: 4}},
		{ID: "r0", Op: OpRank, Rank: &RankRequest{Width: 5, Cycles: 64, Seed: 5}},
		{ID: "s2", Op: OpSimulate, Simulate: &SimulateRequest{Circuit: "adder", Width: 6, Cycles: 128, Seed: 6}},
	}
}

// checkPlanInvariants asserts the partition invariants FuzzBatchRequest
// pins: every submitted index lands in exactly one group or exactly one
// Bad entry, group Items ascend, and every Bad entry carries a typed
// input error.
func checkPlanInvariants(t testing.TB, items []BatchItem, plan BatchPlan) {
	t.Helper()
	seen := make(map[int]int)
	for gi, g := range plan.Groups {
		if len(g.Items) == 0 {
			t.Fatalf("group %d is empty", gi)
		}
		prev := -1
		for _, idx := range g.Items {
			if idx < 0 || idx >= len(items) {
				t.Fatalf("group %d holds out-of-range index %d", gi, idx)
			}
			if idx <= prev {
				t.Fatalf("group %d items not ascending: %v", gi, g.Items)
			}
			prev = idx
			seen[idx]++
		}
	}
	for _, bad := range plan.Bad {
		if bad.Index < 0 || bad.Index >= len(items) {
			t.Fatalf("Bad holds out-of-range index %d", bad.Index)
		}
		if bad.Error == nil || bad.Error.Kind != BatchErrInput {
			t.Fatalf("Bad[%d] lacks a typed input error: %+v", bad.Index, bad.Error)
		}
		seen[bad.Index]++
	}
	for i := range items {
		if seen[i] != 1 {
			t.Fatalf("index %d appears %d times across groups+Bad, want exactly once", i, seen[i])
		}
	}
}

func TestPartitionBatch(t *testing.T) {
	items := batchFixture()
	items = append(items,
		BatchItem{ID: "bad0", Op: "no-such-op"},
		BatchItem{ID: "bad1", Op: OpSimulate}, // missing payload
		BatchItem{ID: "bad2", Op: OpSimulate, Simulate: &SimulateRequest{Circuit: "alu", Width: 6, Cycles: 10}}, // unknown circuit
		BatchItem{ID: "bad3", Op: OpBDD, BDD: &BDDRequest{Function: "parity", Vars: 99}},                        // vars out of range
	)
	plan := PartitionBatch(items)
	checkPlanInvariants(t, items, plan)
	// adder/6 (s0,s1,s2), multiplier/4, bdd parity/6, predict adder/6,
	// rank width 5 — five groups in first-appearance order.
	if len(plan.Groups) != 5 {
		t.Fatalf("got %d groups, want 5: %+v", len(plan.Groups), plan.Groups)
	}
	if g := plan.Groups[0]; g.Op != OpSimulate || g.Circuit != "adder" || len(g.Items) != 3 {
		t.Fatalf("first group wrong: %+v", g)
	}
	if len(plan.Bad) != 4 {
		t.Fatalf("got %d bad items, want 4", len(plan.Bad))
	}
}

// TestBatchBitIdenticalToSingleCalls is the tentpole acceptance test at
// the service layer: every item of a fused batch must be Float64bits-
// identical to the corresponding single-request call.
func TestBatchBitIdenticalToSingleCalls(t *testing.T) {
	svc := &Local{}
	ctx := context.Background()
	items := batchFixture()
	resp := svc.Batch(ctx, BatchRequest{Items: items}, BatchHooks{})
	if resp.Failed != 0 {
		t.Fatalf("batch failed %d items: %+v", resp.Failed, resp.Items)
	}
	if len(resp.Items) != len(items) {
		t.Fatalf("got %d results, want %d", len(resp.Items), len(items))
	}
	for i, it := range items {
		got := resp.Items[i]
		if got.Index != i || got.ID != it.ID || got.Op != it.Op {
			t.Fatalf("result %d misattributed: %+v", i, got)
		}
		switch it.Op {
		case OpSimulate:
			want, err := svc.Simulate(ctx, nil, *it.Simulate)
			if err != nil {
				t.Fatal(err)
			}
			g := got.Simulate
			if math.Float64bits(g.Power) != math.Float64bits(want.Power()) ||
				math.Float64bits(g.SwitchedCap) != math.Float64bits(want.SwitchedCap) {
				t.Fatalf("item %d (%s): batch %v/%v, single %v/%v",
					i, it.ID, g.Power, g.SwitchedCap, want.Power(), want.SwitchedCap)
			}
			if g.Shards != want.Shards || g.Fallback != want.Fallback || g.Kernel != want.Kernel {
				t.Fatalf("item %d (%s): metadata differs: %+v vs %d/%q/%q",
					i, it.ID, g, want.Shards, want.Fallback, want.Kernel)
			}
		case OpRank:
			want, err := svc.Rank(ctx, nil, *it.Rank)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Rank.Ranking) != len(want.Ranking) {
				t.Fatalf("item %d: ranking lengths differ", i)
			}
			for j := range want.Ranking {
				if got.Rank.Ranking[j].Name != want.Ranking[j].Name ||
					math.Float64bits(got.Rank.Ranking[j].Power) != math.Float64bits(want.Ranking[j].Power) {
					t.Fatalf("item %d entry %d differs", i, j)
				}
			}
		case OpBDD:
			tt, err := TruthTable(it.BDD.Function, it.BDD.Vars)
			if err != nil {
				t.Fatal(err)
			}
			want, err := svc.BDD(ctx, nil, *it.BDD, tt)
			if err != nil {
				t.Fatal(err)
			}
			if got.BDD.Nodes != want.Nodes || got.BDD.Degraded != want.Degraded {
				t.Fatalf("item %d: bdd differs: %+v vs %+v", i, got.BDD, want)
			}
		case OpPredict:
			want, err := svc.Predict(ctx, nil, *it.Predict)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got.Predict.Predicted) != math.Float64bits(want.Predicted) ||
				math.Float64bits(got.Predict.Measured) != math.Float64bits(want.Measured) {
				t.Fatalf("item %d: predict differs: %+v vs %+v", i, got.Predict, want)
			}
		}
	}
}

// TestBatchPartialFailure: one poisoned item fails typed while the rest
// of its own group succeeds — the isolation acceptance criterion.
func TestBatchPartialFailure(t *testing.T) {
	svc := &Local{}
	items := []BatchItem{
		{ID: "ok0", Op: OpSimulate, Simulate: &SimulateRequest{Circuit: "adder", Width: 6, Cycles: 64, Seed: 1}},
		{ID: "poison", Op: OpSimulate, Simulate: &SimulateRequest{Circuit: "adder", Width: 6, Cycles: 4000, Seed: 2}},
		{ID: "ok1", Op: OpSimulate, Simulate: &SimulateRequest{Circuit: "adder", Width: 6, Cycles: 64, Seed: 3}},
	}
	// A per-item step allowance the 64-cycle items fit under and the
	// 4000-cycle one cannot.
	hooks := BatchHooks{Budget: func() *budget.Budget {
		return budget.New(budget.WithMaxSteps(30_000), budget.WithCheckInterval(64))
	}}
	resp := svc.Batch(context.Background(), BatchRequest{Items: items}, hooks)
	if resp.Failed != 1 {
		t.Fatalf("failed=%d, want 1: %+v", resp.Failed, resp.Items)
	}
	if e := resp.Items[1].Error; e == nil || e.Kind != BatchErrBudget {
		t.Fatalf("poisoned item error: %+v, want kind %q", resp.Items[1].Error, BatchErrBudget)
	}
	for _, i := range []int{0, 2} {
		if resp.Items[i].Error != nil || resp.Items[i].Simulate == nil {
			t.Fatalf("sibling item %d poisoned: %+v", i, resp.Items[i])
		}
	}
}

// TestBatchStepCeiling: the aggregate batch budget fails remaining
// items typed once crossed.
func TestBatchStepCeiling(t *testing.T) {
	svc := &Local{}
	var items []BatchItem
	for i := 0; i < 6; i++ {
		items = append(items, BatchItem{Op: OpSimulate,
			Simulate: &SimulateRequest{Circuit: "adder", Width: 6, Cycles: 64, Seed: int64(i)}})
	}
	resp := svc.Batch(context.Background(), BatchRequest{Items: items}, BatchHooks{
		Budget: func() *budget.Budget { return budget.New() },
		Steps:  1, // first computed item crosses it
	})
	if resp.Items[0].Error != nil {
		t.Fatalf("first item should compute: %+v", resp.Items[0].Error)
	}
	for i := 1; i < len(items); i++ {
		if e := resp.Items[i].Error; e == nil || e.Kind != BatchErrBudget {
			t.Fatalf("item %d: %+v, want kind %q", i, resp.Items[i].Error, BatchErrBudget)
		}
	}
	if resp.StepsUsed <= 0 {
		t.Fatalf("StepsUsed=%d, want positive", resp.StepsUsed)
	}
}

// TestBatchCancellation: a canceled context fails remaining items with
// the canceled kind rather than computing them.
func TestBatchCancellation(t *testing.T) {
	svc := &Local{}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	items := batchFixture()
	resp := svc.Batch(ctx, BatchRequest{Items: items}, BatchHooks{})
	for i := range items {
		if e := resp.Items[i].Error; e == nil || e.Kind != BatchErrCanceled {
			t.Fatalf("item %d: %+v, want kind %q", i, resp.Items[i].Error, BatchErrCanceled)
		}
	}
}

// TestBatchGroupTakeover: a Group hook's positional results are
// remapped onto batch indices; a count mismatch falls back to local
// compute.
func TestBatchGroupTakeover(t *testing.T) {
	svc := &Local{}
	items := []BatchItem{
		{ID: "a", Op: OpSimulate, Simulate: &SimulateRequest{Circuit: "adder", Width: 6, Cycles: 64, Seed: 1}},
		{ID: "b", Op: OpBDD, BDD: &BDDRequest{Function: "and", Vars: 4}},
		{ID: "c", Op: OpSimulate, Simulate: &SimulateRequest{Circuit: "adder", Width: 6, Cycles: 64, Seed: 2}},
	}
	var took []string
	hook := func(_ context.Context, g BatchGroup, gi []BatchItem) ([]BatchItemResult, bool) {
		if g.Op != OpSimulate {
			return nil, false
		}
		took = append(took, g.Circuit)
		rs := make([]BatchItemResult, len(gi))
		for j, it := range gi {
			rs[j] = BatchItemResult{ID: it.ID, Op: it.Op,
				Simulate: &SimulateResponse{Circuit: "taken-over"}}
		}
		return rs, true
	}
	resp := svc.Batch(context.Background(), BatchRequest{Items: items}, BatchHooks{Group: hook})
	if len(took) != 1 {
		t.Fatalf("group hook ran %d times, want 1", len(took))
	}
	for _, i := range []int{0, 2} {
		r := resp.Items[i]
		if r.Simulate == nil || r.Simulate.Circuit != "taken-over" || r.Index != i {
			t.Fatalf("item %d not remapped from takeover: %+v", i, r)
		}
	}
	if resp.Items[1].BDD == nil {
		t.Fatalf("bdd item should compute locally: %+v", resp.Items[1])
	}

	// Wrong result count: the pipeline must ignore the takeover and
	// compute locally.
	short := func(_ context.Context, g BatchGroup, gi []BatchItem) ([]BatchItemResult, bool) {
		return []BatchItemResult{{}}, true
	}
	resp = svc.Batch(context.Background(), BatchRequest{Items: items}, BatchHooks{Group: short})
	if resp.Failed != 0 || resp.Items[0].Simulate == nil || resp.Items[0].Simulate.Circuit != "adder" {
		t.Fatalf("count-mismatched takeover not recomputed locally: %+v", resp.Items[0])
	}
}

// TestBatchEmitOrder: Emit sees rejected items first, then each group's
// items in submission order, with GroupDone at every boundary.
func TestBatchEmitOrder(t *testing.T) {
	svc := &Local{}
	items := []BatchItem{
		{Op: OpSimulate, Simulate: &SimulateRequest{Circuit: "adder", Width: 6, Cycles: 64, Seed: 1}},
		{Op: "bogus"},
		{Op: OpSimulate, Simulate: &SimulateRequest{Circuit: "adder", Width: 6, Cycles: 64, Seed: 2}},
	}
	var order []int
	var groups int
	svc.Batch(context.Background(), BatchRequest{Items: items}, BatchHooks{
		Emit:      func(r BatchItemResult) { order = append(order, r.Index) },
		GroupDone: func(BatchGroup) { groups++ },
	})
	want := []int{1, 0, 2}
	if len(order) != len(want) {
		t.Fatalf("emitted %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("emit order %v, want %v", order, want)
		}
	}
	if groups != 1 {
		t.Fatalf("GroupDone ran %d times, want 1", groups)
	}
}

// TestBatchBudgetErrorMapping: an engine error from a nil-payload-free
// but uncomputable item maps onto the typed taxonomy (here: a budget
// trip injected through the per-item budget hook).
func TestBatchErrorTaxonomy(t *testing.T) {
	if k := batchErrorFor(budget.ErrExceeded); k.Kind != BatchErrBudget {
		t.Fatalf("budget error mapped to %q", k.Kind)
	}
	if k := batchErrorFor(context.Canceled); k.Kind != BatchErrCanceled {
		t.Fatalf("canceled mapped to %q", k.Kind)
	}
	if k := batchErrorFor(errors.New("boom")); k.Kind != BatchErrInternal {
		t.Fatalf("unknown mapped to %q", k.Kind)
	}
}

// FuzzBatchRequest drives arbitrary JSON through batch decoding and
// partitioning and asserts the plan invariants: no item lost, none
// duplicated, bad items isolated to typed input errors — and running
// the plan never panics and answers every item.
func FuzzBatchRequest(f *testing.F) {
	seed, _ := json.Marshal(BatchRequest{Items: batchFixture()})
	f.Add(seed)
	f.Add([]byte(`{"items":[{"op":"simulate"},{"op":"bdd","bdd":{"function":"and","vars":2}}]}`))
	f.Add([]byte(`{"items":[{"op":"simulate","simulate":{"circuit":"adder","width":-3,"cycles":1}}]}`))
	f.Add([]byte(`{"items":[]}`))
	f.Add([]byte(`garbage`))
	svc := &Local{}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req BatchRequest
		if err := json.Unmarshal(data, &req); err != nil {
			return
		}
		if len(req.Items) > 64 {
			req.Items = req.Items[:64]
		}
		// Keep fuzzed workloads cheap: cap the cycle knobs so a valid
		// random item costs microseconds, without changing validity.
		for i := range req.Items {
			if s := req.Items[i].Simulate; s != nil && s.Cycles > 64 {
				s.Cycles = 64
			}
			if r := req.Items[i].Rank; r != nil && r.Cycles > 32 {
				r.Cycles = 32
			}
			if p := req.Items[i].Predict; p != nil {
				if p.Train > 32 {
					p.Train = 32
				}
				if p.Eval > 32 {
					p.Eval = 32
				}
			}
		}
		plan := PartitionBatch(req.Items)
		checkPlanInvariants(t, req.Items, plan)
		resp := svc.Batch(context.Background(), BatchRequest{Items: req.Items}, BatchHooks{
			Budget: func() *budget.Budget {
				return budget.New(budget.WithMaxSteps(1_000_000), budget.WithCheckInterval(64))
			},
		})
		if len(resp.Items) != len(req.Items) {
			t.Fatalf("%d results for %d items", len(resp.Items), len(req.Items))
		}
		for i, r := range resp.Items {
			if r.Index != i {
				t.Fatalf("result %d carries index %d", i, r.Index)
			}
			payloads := 0
			for _, p := range []bool{r.Simulate != nil, r.Rank != nil, r.BDD != nil, r.Predict != nil} {
				if p {
					payloads++
				}
			}
			if r.Error != nil && payloads != 0 {
				t.Fatalf("result %d carries both payload and error", i)
			}
			if r.Error == nil && payloads != 1 {
				t.Fatalf("result %d carries %d payloads and no error", i, payloads)
			}
		}
	})
}

// TestBatchLazyBudget: with ItemLazy, only items whose hook asks for a
// budget build one — a memoizing hook's hits build none — and StepsUsed
// sums exactly the budgets that were built. The eager Item hook still
// gets one budget per item.
func TestBatchLazyBudget(t *testing.T) {
	svc := &Local{}
	var items []BatchItem
	for i := 0; i < 6; i++ {
		// Seeds repeat, so items 3..5 replay items 0..2.
		items = append(items, BatchItem{Op: OpSimulate,
			Simulate: &SimulateRequest{Circuit: "adder", Width: 6, Cycles: 64, Seed: int64(i % 3)}})
	}
	var built []*budget.Budget
	mk := func() *budget.Budget {
		b := budget.New()
		built = append(built, b)
		return b
	}
	memo := make(map[int64]BatchItemResult)
	resp := svc.Batch(context.Background(), BatchRequest{Items: items}, BatchHooks{
		Budget: mk,
		ItemLazy: func(ctx context.Context, r *GroupRunner, mkBudget func() *budget.Budget, idx int, it BatchItem) (BatchItemResult, error) {
			if hit, ok := memo[it.Simulate.Seed]; ok {
				return hit, nil
			}
			res, err := r.RunItem(ctx, mkBudget(), idx, it)
			if err == nil {
				memo[it.Simulate.Seed] = res
			}
			return res, err
		},
	})
	if resp.Failed != 0 {
		t.Fatalf("failed items: %+v", resp.Items)
	}
	if len(built) != 3 {
		t.Fatalf("built %d budgets for 3 computed items and 3 hits", len(built))
	}
	var steps int64
	for _, b := range built {
		if b.StepsUsed() <= 0 {
			t.Fatal("a built budget was never charged")
		}
		steps += b.StepsUsed()
	}
	if resp.StepsUsed != steps {
		t.Fatalf("StepsUsed=%d, want the built budgets' %d", resp.StepsUsed, steps)
	}

	built = nil
	resp = svc.Batch(context.Background(), BatchRequest{Items: items}, BatchHooks{
		Budget: mk,
		Item: func(ctx context.Context, r *GroupRunner, b *budget.Budget, idx int, it BatchItem) (BatchItemResult, error) {
			return r.RunItem(ctx, b, idx, it)
		},
	})
	if resp.Failed != 0 || len(built) != len(items) {
		t.Fatalf("eager hook: %d failed, %d budgets for %d items", resp.Failed, len(built), len(items))
	}
}
