package powerd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"hlpower/internal/budget"
	"hlpower/internal/hlerr"
	"hlpower/internal/resilience"
	"hlpower/internal/service"
	"hlpower/internal/sim"
)

// Batched estimation endpoints. POST /v1/batch accepts up to
// service.MaxBatchItems heterogeneous items and answers them all in one
// buffered response; POST /v1/batch/stream answers the same request as
// NDJSON, flushing each partition group's results as it completes. Both
// run the transport-agnostic service.Batch pipeline with this server's
// policy grafted in through hooks: fresh per-item budgets, the same
// content-addressed memo keys (and singleflight) the single-item
// endpoints use — so a batch item and a single request populate and hit
// the same cache entries — per-item breaker accounting, and, in cluster
// mode, whole-group forwarding to each group's ring owner with the
// established shed-to-local fallback. A batch is admitted as one
// request (one worker slot): its parallelism comes from per-item
// Workers and from group fan-out across the ring, not from occupying
// the admission queue.

// ---------------------------------------------------------------------
// POST /v1/batch — buffered batched estimation.

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	req, ok := s.decodeBatchRequest(w, r)
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.BatchTimeout)
	defer cancel()
	resp := s.svc.Batch(ctx, req, s.batchHooks(ctx, r, nil, nil))
	s.batches.Add(1)
	s.batchItems.Add(int64(len(req.Items)))
	s.served.Add(1)
	writeJSON(w, http.StatusOK, resp)
}

// batchStreamSummary is the trailing NDJSON line of a streamed batch:
// everything BatchResponse carries except the items, which already went
// out line by line.
type batchStreamSummary struct {
	Done      bool  `json:"done"`
	Groups    int   `json:"groups"`
	Failed    int   `json:"failed"`
	Cached    int   `json:"cached"`
	StepsUsed int64 `json:"steps_used"`
}

// ---------------------------------------------------------------------
// POST /v1/batch/stream — NDJSON streaming batched estimation: one
// BatchItemResult per line (rejected items first, then each group's
// results in submission order), flushed at every group boundary, closed
// by a summary line.

func (s *Server) handleBatchStream(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	req, ok := s.decodeBatchRequest(w, r)
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.BatchTimeout)
	defer cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	emit := func(res service.BatchItemResult) { _ = enc.Encode(res) }
	groupDone := func(service.BatchGroup) { flush() }
	resp := s.svc.Batch(ctx, req, s.batchHooks(ctx, r, emit, groupDone))
	_ = enc.Encode(batchStreamSummary{
		Done: true, Groups: resp.Groups, Failed: resp.Failed,
		Cached: resp.Cached, StepsUsed: resp.StepsUsed,
	})
	flush()
	s.batches.Add(1)
	s.batchItems.Add(int64(len(req.Items)))
	s.served.Add(1)
}

// decodeBatchRequest decodes and bounds a batch body. Batches are
// bounded by item count, so the byte cap is generous next to the 1 MiB
// single-request cap.
func (s *Server) decodeBatchRequest(w http.ResponseWriter, r *http.Request) (service.BatchRequest, bool) {
	var req service.BatchRequest
	if err := decodeLimit(r, &req, 64<<20); err != nil {
		s.fail(w, err)
		return req, false
	}
	if len(req.Items) == 0 {
		s.fail(w, hlerr.Errorf("powerd.batch", "empty batch"))
		return req, false
	}
	if len(req.Items) > service.MaxBatchItems {
		s.fail(w, hlerr.Errorf("powerd.batch", "batch of %d items exceeds limit %d", len(req.Items), service.MaxBatchItems))
		return req, false
	}
	return req, true
}

// batchHooks assembles this server's policy hooks for one batch run.
func (s *Server) batchHooks(ctx context.Context, r *http.Request, emit func(service.BatchItemResult), groupDone func(service.BatchGroup)) service.BatchHooks {
	h := service.BatchHooks{
		Budget:    func() *budget.Budget { return s.newBudget(ctx) },
		Steps:     s.cfg.BatchSteps,
		ItemLazy:  s.batchItem,
		Emit:      emit,
		GroupDone: groupDone,
	}
	// Whole groups route to their ring owners under exactly the
	// conditions tryForward uses: never a second hop, never while chaos
	// is armed.
	if s.cluster != nil && r.Header.Get(ForwardedHeader) == "" {
		h.Group = s.batchForward
	}
	return h
}

// batchExec runs one batch item's computation behind the named
// subsystem breaker — Allow, panic containment, Record — without the
// single-request retry loop: a failed item is reported as a typed
// per-item error and the caller resubmits just that item. Input errors
// are marked Permanent for Record exactly as execute does, so malformed
// items never trip a breaker.
func (s *Server) batchExec(name string, b *budget.Budget, op func(*budget.Budget) (any, error)) (any, error) {
	br := s.breakers[name]
	if err := br.Allow(); err != nil {
		return nil, err
	}
	v, err := resilience.SafeValue(func() (any, error) { return op(b) })
	rerr := err
	if rerr != nil && hlerr.IsInput(rerr) {
		rerr = resilience.Permanent(rerr)
	}
	br.Record(rerr)
	return v, err
}

// batchItem computes one item with this server's caching and breaker
// policy. It mirrors the single-item handlers exactly — same memo keys,
// same stored value types, same cacheability rules — so a batch item is
// indistinguishable from a single request in the cache: either can
// populate an entry the other replays, bit for bit. The item's budget
// is built only inside a memo computation, so hits never build one.
// While a fault plan is armed the memo is off, every item computes, and
// the per-request fault seeds are drawn in submission order.
func (s *Server) batchItem(ctx context.Context, runner *service.GroupRunner, mkBudget func() *budget.Budget, idx int, it service.BatchItem) (service.BatchItemResult, error) {
	out := service.BatchItemResult{Index: idx, ID: it.ID, Op: it.Op}
	var err error
	switch it.Op {
	case service.OpSimulate:
		req := *it.Simulate
		var v any
		var cached bool
		v, cached, err = s.memoDo(s.keys.Simulate(req), func() (any, int64, bool, error) {
			rv, err := s.batchExec("sim", mkBudget(), func(eb *budget.Budget) (any, error) {
				return runner.Simulate(eb, req)
			})
			if err != nil {
				return nil, 0, false, err
			}
			res := rv.(*sim.Result)
			return simulateResponse{
				Circuit:     req.Circuit,
				Cycles:      res.Cycles,
				SwitchedCap: res.SwitchedCap,
				Power:       res.Power(),
				Shards:      res.Shards,
				Fallback:    res.Fallback,
				Kernel:      res.Kernel,
			}, 160, true, nil
		})
		if err == nil {
			resp := v.(simulateResponse)
			resp.Cached = cached
			out.Simulate = &resp
		}
	case service.OpRank:
		req := *it.Rank
		var v any
		var cached bool
		v, cached, err = s.memoDo(s.keys.Rank(req), func() (any, int64, bool, error) {
			rv, err := s.batchExec("rank", mkBudget(), func(eb *budget.Budget) (any, error) {
				return runner.Rank(ctx, eb, req)
			})
			if err != nil {
				return nil, 0, false, err
			}
			resp := rv.(rankResponse)
			cacheable := true
			for _, e := range resp.Ranking {
				if e.Degraded || e.Err != "" {
					cacheable = false
					break
				}
			}
			return resp, int64(64 + 96*len(resp.Ranking)), cacheable, nil
		})
		if err == nil {
			resp := v.(rankResponse)
			resp.Cached = cached
			out.Rank = &resp
		}
	case service.OpBDD:
		req := *it.BDD
		tt := runner.TruthTable()
		var v any
		var cached bool
		v, cached, err = s.memoDo(s.keys.BDD(tt, req.Vars), func() (any, int64, bool, error) {
			rv, err := s.batchExec("bdd", mkBudget(), func(eb *budget.Budget) (any, error) {
				return runner.BDD(ctx, eb, req)
			})
			if err != nil {
				return nil, 0, false, err
			}
			val := rv.(bddVal)
			return val, 32, !val.Degraded, nil
		})
		if err == nil {
			val := v.(bddVal)
			// Same in-flight-sharing corner as handleBDD: an exact-only
			// caller must not receive a degraded value a concurrent
			// degradation-tolerant leader computed.
			if val.Degraded && !req.AllowDegraded {
				err = fmt.Errorf("powerd: exact build cut off by budget: %w", budget.ErrExceeded)
			} else {
				out.BDD = &bddResponse{
					Function: req.Function, Vars: req.Vars,
					Nodes: val.Nodes, Degraded: val.Degraded, Cached: cached,
				}
			}
		}
	case service.OpPredict:
		req := *it.Predict
		var v any
		var cached bool
		v, cached, err = s.memoDo(s.keys.Predict(req), func() (any, int64, bool, error) {
			rv, err := s.batchExec("predict", mkBudget(), func(eb *budget.Budget) (any, error) {
				return runner.Predict(eb, req)
			})
			if err != nil {
				return nil, 0, false, err
			}
			return rv.(predictResponse), 128, true, nil
		})
		if err == nil {
			resp := v.(predictResponse)
			resp.Cached = cached
			out.Predict = &resp
		}
	}
	if err != nil {
		// Breaker-open is this serving layer's condition, not the
		// engine's; classify it here and let the pipeline map the rest.
		var open *resilience.OpenError
		if errors.As(err, &open) {
			out.Error = &service.BatchError{Kind: service.BatchErrUnavailable, Message: err.Error()}
			return out, nil
		}
		return out, err
	}
	return out, nil
}

// batchForward is the batch pipeline's Group hook: when a live peer
// owns a group's routing key, the whole group is forwarded to it as a
// sub-batch, landing every item on the owner's compiled artifacts,
// cache entries, and singleflight. Any failure — suspected owner, open
// peer breaker, transport error, an overloaded or draining owner —
// returns ok=false and the group computes locally, exactly the
// shed-to-local contract of tryForward.
func (s *Server) batchForward(ctx context.Context, g service.BatchGroup, items []service.BatchItem) ([]service.BatchItemResult, bool) {
	if s.cluster == nil || s.plan.Load() != nil {
		return nil, false
	}
	owner, remote := s.cluster.Owner(s.keys.Group(g))
	if !remote {
		return nil, false
	}
	body, err := json.Marshal(service.BatchRequest{Items: items})
	if err != nil {
		return nil, false
	}
	status, respBody, _, err := s.cluster.Forward(ctx, owner, "/v1/batch", body,
		map[string]string{ForwardedHeader: s.cluster.SelfID()})
	if err != nil || status != http.StatusOK {
		s.fallbacks.Add(1)
		return nil, false
	}
	var resp service.BatchResponse
	if err := json.Unmarshal(respBody, &resp); err != nil || len(resp.Items) != len(items) {
		s.fallbacks.Add(1)
		return nil, false
	}
	s.forwarded.Add(1)
	return resp.Items, true
}
