package service

import (
	"context"
	"errors"

	"hlpower/internal/budget"
	"hlpower/internal/hlerr"
	"hlpower/internal/rtlib"
	"hlpower/internal/sim"
)

// Batch pipeline. A batch is thousands of heterogeneous estimation
// items submitted as one request. The pipeline partitions them into
// groups that share compiled artifacts — every simulate item over one
// (circuit, width) shares a single sim.Compile (netlist tables + packed
// program + pooled kernel scratch), predict items share that same
// compiled artifact, bdd items share the materialized truth table — so per-request setup
// cost is paid once per group instead of once per item. Items are
// validated individually: a malformed item becomes a typed per-item
// error and never poisons its group, and a failed computation (budget
// trip, injected fault) fails only its own item. The serving layer
// grafts policy in through BatchHooks: per-item budgets, memoization
// and singleflight, breaker accounting, cluster routing of whole
// groups, and streaming emission.

// Batch ops, also the wire values of BatchItem.Op.
const (
	OpSimulate = "simulate"
	OpRank     = "rank"
	OpBDD      = "bdd"
	OpPredict  = "predict"
)

// MaxBatchItems bounds one batch request; transports reject larger
// batches before partitioning.
const MaxBatchItems = 10_000

// Batch error kinds, mirroring the HTTP error taxonomy of the serving
// layer so a per-item error and a whole-request error classify alike.
const (
	BatchErrInput       = "input"       // malformed item (never retryable)
	BatchErrBudget      = "budget"      // item or batch budget exhausted
	BatchErrUnavailable = "unavailable" // subsystem breaker open
	BatchErrCanceled    = "canceled"    // caller gone before the item ran
	BatchErrInternal    = "internal"
)

// BatchItem is one estimation request inside a batch: an op tag plus
// exactly the matching payload.
type BatchItem struct {
	// ID is an optional caller-chosen correlation tag echoed on the
	// item's result.
	ID       string           `json:"id,omitempty"`
	Op       string           `json:"op"`
	Simulate *SimulateRequest `json:"simulate,omitempty"`
	Rank     *RankRequest     `json:"rank,omitempty"`
	BDD      *BDDRequest      `json:"bdd,omitempty"`
	Predict  *PredictRequest  `json:"predict,omitempty"`
}

// BatchRequest is the batch wire type.
type BatchRequest struct {
	Items []BatchItem `json:"items"`
}

// BatchError is one item's typed failure.
type BatchError struct {
	Kind    string `json:"kind"`
	Message string `json:"message"`
}

// BatchItemResult is one item's outcome: the payload matching the op,
// or a typed error — never both.
type BatchItemResult struct {
	// Index is the item's position in the submitted batch; results are
	// always attributable even when streamed out of submission order.
	Index    int               `json:"index"`
	ID       string            `json:"id,omitempty"`
	Op       string            `json:"op,omitempty"`
	Simulate *SimulateResponse `json:"simulate,omitempty"`
	Rank     *RankResponse     `json:"rank,omitempty"`
	BDD      *BDDResponse      `json:"bdd,omitempty"`
	Predict  *PredictResponse  `json:"predict,omitempty"`
	Error    *BatchError       `json:"error,omitempty"`
}

// Cached reports whether the item's payload was replayed from an
// estimate cache.
func (r *BatchItemResult) Cached() bool {
	switch {
	case r.Simulate != nil:
		return r.Simulate.Cached
	case r.Rank != nil:
		return r.Rank.Cached
	case r.BDD != nil:
		return r.BDD.Cached
	case r.Predict != nil:
		return r.Predict.Cached
	}
	return false
}

// BatchResponse is the buffered batch wire type. Items holds one result
// per submitted item, in submission order.
type BatchResponse struct {
	Items []BatchItemResult `json:"items"`
	// Groups is how many shared-artifact groups the batch partitioned
	// into; Failed and Cached count items, StepsUsed is the aggregate
	// simulation step charge of every locally computed item.
	Groups    int   `json:"groups"`
	Failed    int   `json:"failed"`
	Cached    int   `json:"cached"`
	StepsUsed int64 `json:"steps_used"`
}

// BatchGroup is one partition cell: the items (by batch index, in
// submission order) that share one set of compiled artifacts. Exactly
// one of the Circuit/Width and Function/Vars pairs is meaningful,
// selected by Op; Rank groups key on Width alone.
type BatchGroup struct {
	Op       string `json:"op"`
	Circuit  string `json:"circuit,omitempty"`
	Width    int    `json:"width,omitempty"`
	Function string `json:"function,omitempty"`
	Vars     int    `json:"vars,omitempty"`
	Items    []int  `json:"items"`
}

// BatchPlan is the outcome of partitioning: groups in first-appearance
// order, plus the items rejected by validation, already carrying their
// typed errors. Every submitted index appears exactly once — in one
// group's Items or in Bad.
type BatchPlan struct {
	Groups []BatchGroup
	Bad    []BatchItemResult
}

// KnownCircuit reports whether name is a servable RT-library circuit
// (the set ModuleFor builds).
func KnownCircuit(name string) bool {
	switch name {
	case "adder", "carry-select", "multiplier", "subtractor", "comparator":
		return true
	}
	return false
}

// KnownFunction reports whether name is a servable boolean function
// (the set TruthTable materializes).
func KnownFunction(name string) bool {
	switch name {
	case "parity", "majority", "and":
		return true
	}
	return false
}

// KnownModel reports whether name is a servable macro-model type (the
// set Predict fits).
func KnownModel(name string) bool {
	switch name {
	case "pfa", "dbt", "bitwise", "io":
		return true
	}
	return false
}

func checkWidth(w int) error {
	if w < 2 || w > MaxWidth {
		return hlerr.Errorf("service.batch", "width %d out of range [2,%d]", w, MaxWidth)
	}
	return nil
}

// validateBatchItem is the partition-time item check: cheap range and
// vocabulary validation only, no artifact construction. Anything it
// accepts either computes or fails with the engine's own typed error.
func validateBatchItem(it BatchItem) error {
	switch it.Op {
	case OpSimulate:
		if it.Simulate == nil {
			return hlerr.Errorf("service.batch", "op %q without simulate payload", it.Op)
		}
		if !KnownCircuit(it.Simulate.Circuit) {
			return hlerr.Errorf("service.batch", "unknown circuit %q", it.Simulate.Circuit)
		}
		if err := checkWidth(it.Simulate.Width); err != nil {
			return err
		}
		return CheckCycles(it.Simulate.Cycles)
	case OpRank:
		if it.Rank == nil {
			return hlerr.Errorf("service.batch", "op %q without rank payload", it.Op)
		}
		if err := checkWidth(it.Rank.Width); err != nil {
			return err
		}
		return CheckCycles(it.Rank.Cycles)
	case OpBDD:
		if it.BDD == nil {
			return hlerr.Errorf("service.batch", "op %q without bdd payload", it.Op)
		}
		if !KnownFunction(it.BDD.Function) {
			return hlerr.Errorf("service.batch", "unknown function %q", it.BDD.Function)
		}
		if it.BDD.Vars < 1 || it.BDD.Vars > MaxBDDVars {
			return hlerr.Errorf("service.batch", "vars %d out of range [1,%d]", it.BDD.Vars, MaxBDDVars)
		}
		return nil
	case OpPredict:
		if it.Predict == nil {
			return hlerr.Errorf("service.batch", "op %q without predict payload", it.Op)
		}
		if !KnownCircuit(it.Predict.Circuit) {
			return hlerr.Errorf("service.batch", "unknown circuit %q", it.Predict.Circuit)
		}
		if !KnownModel(it.Predict.Model) {
			return hlerr.Errorf("service.batch", "unknown model %q", it.Predict.Model)
		}
		if err := checkWidth(it.Predict.Width); err != nil {
			return err
		}
		if err := CheckCycles(it.Predict.Train); err != nil {
			return err
		}
		return CheckCycles(it.Predict.Eval)
	default:
		return hlerr.Errorf("service.batch", "unknown op %q", it.Op)
	}
}

// groupCell derives the item's partition cell. Call only on validated
// items.
func groupCell(it BatchItem) BatchGroup {
	switch it.Op {
	case OpSimulate:
		return BatchGroup{Op: it.Op, Circuit: it.Simulate.Circuit, Width: it.Simulate.Width}
	case OpRank:
		return BatchGroup{Op: it.Op, Width: it.Rank.Width}
	case OpBDD:
		return BatchGroup{Op: it.Op, Function: it.BDD.Function, Vars: it.BDD.Vars}
	default: // OpPredict
		return BatchGroup{Op: it.Op, Circuit: it.Predict.Circuit, Width: it.Predict.Width}
	}
}

// PartitionBatch validates every item and partitions the valid ones
// into shared-artifact groups. The plan is deterministic: groups appear
// in order of their first item, each group's Items ascend, and every
// submitted index lands in exactly one group or exactly one Bad entry —
// the invariants FuzzBatchRequest pins.
func PartitionBatch(items []BatchItem) BatchPlan {
	type cellKey struct {
		op, name string
		n        int
	}
	var plan BatchPlan
	cells := make(map[cellKey]int) // cell -> index into plan.Groups
	for i, it := range items {
		if err := validateBatchItem(it); err != nil {
			plan.Bad = append(plan.Bad, BatchItemResult{
				Index: i, ID: it.ID, Op: it.Op,
				Error: &BatchError{Kind: BatchErrInput, Message: err.Error()},
			})
			continue
		}
		cell := groupCell(it)
		key := cellKey{op: cell.Op, name: cell.Circuit + cell.Function, n: cell.Width + cell.Vars}
		gi, ok := cells[key]
		if !ok {
			gi = len(plan.Groups)
			cells[key] = gi
			plan.Groups = append(plan.Groups, cell)
		}
		plan.Groups[gi].Items = append(plan.Groups[gi].Items, i)
	}
	return plan
}

// GroupRunner holds one group's compiled artifacts and computes its
// items. Safe for concurrent item runs (the artifacts are read-only and
// the kernel scratch pool is concurrency-safe).
type GroupRunner struct {
	l    *Local
	g    BatchGroup
	mod  *rtlib.Module // simulate
	comp *sim.Compiled // simulate
	art  *artifact     // simulate, predict
	tt   []bool        // bdd
}

// NewGroupRunner compiles the shared artifacts of one partition group:
// the module and packed-kernel program for simulate and predict groups,
// the materialized truth table for bdd groups. An
// error fails the whole group — by construction it would fail every
// item identically.
func (l *Local) NewGroupRunner(g BatchGroup) (*GroupRunner, error) {
	r := &GroupRunner{l: l, g: g}
	var err error
	switch g.Op {
	case OpSimulate:
		// The shared artifact cache makes group compilation a map hit on
		// hot netlists: the compiled (fused) program and its scratch pool
		// persist across batches and are shared with the single-request
		// and rank paths.
		art, aerr := l.artifactFor(g.Circuit, g.Width)
		if aerr != nil {
			return nil, aerr
		}
		r.mod, r.comp, r.art = art.mod, art.comp, art
	case OpPredict:
		art, aerr := l.artifactFor(g.Circuit, g.Width)
		if aerr != nil {
			return nil, aerr
		}
		r.art = art
	case OpBDD:
		if r.tt, err = TruthTable(g.Function, g.Vars); err != nil {
			return nil, err
		}
	case OpRank:
		// Rank items share no precompiled artifact: each candidate set is
		// evaluated through the per-candidate memo keys instead.
	default:
		return nil, hlerr.Errorf("service.batch", "unknown op %q", g.Op)
	}
	return r, nil
}

// Group returns the partition cell this runner computes.
func (r *GroupRunner) Group() BatchGroup { return r.g }

// TruthTable returns the group's materialized truth table (bdd groups
// only), so caching layers can derive the same content key the
// single-request path uses without re-materializing it per item.
func (r *GroupRunner) TruthTable() []bool { return r.tt }

// Simulate runs one simulate item over the group's compiled netlist.
// Bit-identical to Local.Simulate for the same request — including the
// Shards/Fallback/Kernel metadata — with the setup already paid.
func (r *GroupRunner) Simulate(b *budget.Budget, req SimulateRequest) (*sim.Result, error) {
	if err := CheckCycles(req.Cycles); err != nil {
		return nil, err
	}
	as, bs := OperandStreams(req.Cycles, req.Width, req.Seed)
	prov := func(c int) []bool { return r.mod.InputVector(as[c], bs[c]) }
	// Words and Lean are pure accelerators: Words feeds the kernel the
	// same bits as prov without the per-cycle []bool, and Lean skips
	// Result fields the batch response never reads. Power, SwitchedCap,
	// and the execution metadata stay bit-identical to Local.Simulate.
	// Routing through runArtifact makes batch items count toward — and
	// benefit from — codegen promotion exactly like single requests.
	return r.l.runArtifact(b, r.art, prov, req.Cycles, sim.RunOptions{
		Workers: req.Workers,
		Words:   func(c int) uint64 { return r.mod.InputWord(as[c], bs[c]) },
		Lean:    true,
	})
}

// BDD runs one bdd item over the group's materialized truth table.
func (r *GroupRunner) BDD(ctx context.Context, b *budget.Budget, req BDDRequest) (BDDOutcome, error) {
	return r.l.BDD(ctx, b, req, r.tt)
}

// Rank runs one rank item; identical to Local.Rank.
func (r *GroupRunner) Rank(ctx context.Context, b *budget.Budget, req RankRequest) (RankResponse, error) {
	return r.l.Rank(ctx, b, req)
}

// Predict runs one predict item over the group's shared artifact.
// Bit-identical to Local.Predict for the same request.
func (r *GroupRunner) Predict(b *budget.Budget, req PredictRequest) (PredictResponse, error) {
	return r.l.predictWith(b, r.art, req)
}

// RunItem computes one item into its wire result (without serving-layer
// metadata: Cached flags belong to the caching layer). The error, when
// non-nil, is the engine's typed failure for this item alone.
func (r *GroupRunner) RunItem(ctx context.Context, b *budget.Budget, idx int, it BatchItem) (BatchItemResult, error) {
	out := BatchItemResult{Index: idx, ID: it.ID, Op: it.Op}
	switch r.g.Op {
	case OpSimulate:
		res, err := r.Simulate(b, *it.Simulate)
		if err != nil {
			return out, err
		}
		out.Simulate = &SimulateResponse{
			Circuit:     it.Simulate.Circuit,
			Cycles:      res.Cycles,
			SwitchedCap: res.SwitchedCap,
			Power:       res.Power(),
			Shards:      res.Shards,
			Fallback:    res.Fallback,
			Kernel:      res.Kernel,
		}
	case OpRank:
		resp, err := r.Rank(ctx, b, *it.Rank)
		if err != nil {
			return out, err
		}
		out.Rank = &resp
	case OpBDD:
		val, err := r.BDD(ctx, b, *it.BDD)
		if err != nil {
			return out, err
		}
		out.BDD = &BDDResponse{
			Function: it.BDD.Function, Vars: it.BDD.Vars,
			Nodes: val.Nodes, Degraded: val.Degraded,
		}
	case OpPredict:
		resp, err := r.Predict(b, *it.Predict)
		if err != nil {
			return out, err
		}
		out.Predict = &resp
	}
	return out, nil
}

// BatchHooks is how a serving layer grafts policy into the batch
// pipeline. Every hook is optional; the zero value computes everything
// locally with nil (unlimited) budgets.
type BatchHooks struct {
	// Budget returns a fresh per-item budget. Budgets are sticky — a
	// tripped one poisons later checks — so each item gets its own,
	// exactly as each single request does; that is also what isolates a
	// failing item from the rest of its group.
	Budget func() *budget.Budget
	// Steps, when positive, is the whole-batch step ceiling: once the
	// aggregate StepsUsed of computed items reaches it, every remaining
	// item fails with a typed BatchErrBudget error.
	Steps int64
	// Group, when set, may take over a whole group's computation —
	// cluster mode forwards groups to their ring owners through it.
	// The returned results are positional (result j answers items[j]);
	// ok=false, or a result count mismatch, computes the group locally.
	Group func(ctx context.Context, g BatchGroup, items []BatchItem) ([]BatchItemResult, bool)
	// Item, when set, wraps one item's computation — the serving layer's
	// seam for memoization, singleflight, and breaker accounting. The
	// default is runner.RunItem.
	Item func(ctx context.Context, runner *GroupRunner, b *budget.Budget, idx int, it BatchItem) (BatchItemResult, error)
	// ItemLazy is Item with the item's budget built on demand: mkBudget
	// returns it, calling Budget on its first use only, and is valid
	// only during the call. A memoizing hook calls it only when the item
	// actually computes, so memo hits never build a budget (and its
	// timeout context). Items are run in submission order, so the items
	// that do build one build them in that order too. It takes
	// precedence over Item.
	ItemLazy func(ctx context.Context, runner *GroupRunner, mkBudget func() *budget.Budget, idx int, it BatchItem) (BatchItemResult, error)
	// Emit, when set, receives every result as it is produced: rejected
	// items first, then each group's items in submission order. The
	// streaming transport writes NDJSON lines here.
	Emit func(res BatchItemResult)
	// GroupDone, when set, is called after a group's last result is
	// emitted — the streaming transport's flush point.
	GroupDone func(g BatchGroup)
}

// batchErrorFor maps an item's computation error onto the typed batch
// error taxonomy.
func batchErrorFor(err error) *BatchError {
	kind := BatchErrInternal
	switch {
	case hlerr.IsInput(err):
		kind = BatchErrInput
	case errors.Is(err, budget.ErrExceeded):
		kind = BatchErrBudget
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		kind = BatchErrCanceled
	}
	return &BatchError{Kind: kind, Message: err.Error()}
}

// Batch is the batched estimation pipeline: partition, compile each
// group once, compute every item, fold the results back into submission
// order. It never fails as a whole — every outcome, including a group
// compile failure or an exhausted batch budget, is expressed as typed
// per-item errors — so one poisoned item can never cost a caller the
// other 9,999.
func (l *Local) Batch(ctx context.Context, req BatchRequest, h BatchHooks) BatchResponse {
	plan := PartitionBatch(req.Items)
	results := make([]BatchItemResult, len(req.Items))
	emit := func(r BatchItemResult) {
		results[r.Index] = r
		if h.Emit != nil {
			h.Emit(r)
		}
	}
	for _, bad := range plan.Bad {
		emit(bad)
	}

	newBudget := func() *budget.Budget {
		if h.Budget == nil {
			return nil
		}
		return h.Budget()
	}
	runItem := h.ItemLazy
	if runItem == nil {
		runItem = func(ctx context.Context, r *GroupRunner, mkBudget func() *budget.Budget, idx int, it BatchItem) (BatchItemResult, error) {
			if h.Item != nil {
				return h.Item(ctx, r, mkBudget(), idx, it)
			}
			return r.RunItem(ctx, mkBudget(), idx, it)
		}
	}

	// One lazy budget slot serves every item in turn: items run one at a
	// time, and mkBudget is only valid during its item's hook call.
	var b *budget.Budget
	built := false
	mkBudget := func() *budget.Budget {
		if !built {
			b, built = newBudget(), true
		}
		return b
	}
	var stepsUsed int64
	exhausted := false
	for _, g := range plan.Groups {
		if h.Group != nil && !exhausted && ctx.Err() == nil {
			items := make([]BatchItem, len(g.Items))
			for j, idx := range g.Items {
				items[j] = req.Items[idx]
			}
			if rs, ok := h.Group(ctx, g, items); ok && len(rs) == len(g.Items) {
				for j, r := range rs {
					r.Index = g.Items[j]
					emit(r)
				}
				if h.GroupDone != nil {
					h.GroupDone(g)
				}
				continue
			}
		}
		runner, rerr := l.NewGroupRunner(g)
		for _, idx := range g.Items {
			it := req.Items[idx]
			out := BatchItemResult{Index: idx, ID: it.ID, Op: it.Op}
			switch {
			case ctx.Err() != nil:
				out.Error = &BatchError{Kind: BatchErrCanceled, Message: ctx.Err().Error()}
			case exhausted:
				out.Error = &BatchError{Kind: BatchErrBudget, Message: "batch step budget exhausted"}
			case rerr != nil:
				out.Error = batchErrorFor(rerr)
			default:
				b, built = nil, false
				r, err := runItem(ctx, runner, mkBudget, idx, it)
				if err != nil {
					out.Error = batchErrorFor(err)
				} else {
					out = r
					out.Index, out.ID, out.Op = idx, it.ID, it.Op
				}
				stepsUsed += b.StepsUsed()
				if h.Steps > 0 && stepsUsed >= h.Steps {
					exhausted = true
				}
			}
			emit(out)
		}
		if h.GroupDone != nil {
			h.GroupDone(g)
		}
	}

	resp := BatchResponse{Items: results, Groups: len(plan.Groups), StepsUsed: stepsUsed}
	for i := range results {
		if results[i].Error != nil {
			resp.Failed++
		} else if results[i].Cached() {
			resp.Cached++
		}
	}
	return resp
}
