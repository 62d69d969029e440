package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"time"

	"hlpower/internal/jobs"
	"hlpower/internal/rtlib"
	"hlpower/internal/service"
	"hlpower/internal/sim"
)

// checker recomputes sampled answers independently of the live server:
// simulate power from the serial engine, rank/predict/bdd from a fresh
// service.Local with no cache, and job scores from a library-run job.
type checker struct {
	local   *service.Local
	modules map[shape]*rtlib.Module
	mgr     *jobs.Manager

	checked  map[string]int // samples checked per kind
	cached   int            // of which the memo replayed
	failures []string
}

func newChecker() *checker {
	return &checker{
		local:   &service.Local{Keys: service.Keys{MaxSteps: serverConfig().MaxSteps}, CodegenAfter: -1},
		modules: map[shape]*rtlib.Module{},
		checked: map[string]int{},
	}
}

// close stops the library job engine, if one was started.
func (c *checker) close() error {
	if c.mgr == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return c.mgr.Drain(ctx)
}

func (c *checker) failf(format string, args ...any) {
	if len(c.failures) < 20 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	} else if len(c.failures) == 20 {
		c.failures = append(c.failures, "further mismatches not shown")
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// check verifies every sample and returns how many answers were wrong.
func (c *checker) check(samples []sample) int {
	wrong := 0
	for _, s := range samples {
		if err := c.one(s); err != nil {
			wrong++
			c.failf("%s: %v", s.o.kind, err)
		}
		c.checked[s.o.kind]++
		if s.p.cached() {
			c.cached++
		}
	}
	return wrong
}

func (c *checker) one(s sample) error {
	ctx := context.Background()
	switch s.o.kind {
	case kindSimulate:
		return c.simulate(*s.o.sim, s.p.sim)
	case kindBatch:
		if len(s.p.batch.Items) != len(s.o.batch.Items) {
			return fmt.Errorf("batch answered %d of %d items", len(s.p.batch.Items), len(s.o.batch.Items))
		}
		for i, it := range s.o.batch.Items {
			r := s.p.batch.Items[i]
			if r.Error != nil || r.Simulate == nil {
				return fmt.Errorf("batch item %d: %+v", i, r.Error)
			}
			if err := c.simulate(*it.Simulate, r.Simulate); err != nil {
				return fmt.Errorf("batch item %d: %w", i, err)
			}
		}
	case kindRank:
		want, err := c.local.Rank(ctx, nil, *s.o.rank)
		if err != nil {
			return err
		}
		got := *s.p.rank
		for i := range got.Ranking {
			got.Ranking[i].Cached = false
		}
		for i := range want.Ranking {
			want.Ranking[i].Cached = false
		}
		got.Cached = false
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("rank %+v: got %+v, want %+v", *s.o.rank, got, want)
		}
	case kindPredict:
		want, err := c.local.Predict(ctx, nil, *s.o.pred)
		if err != nil {
			return err
		}
		got := *s.p.pred
		if !sameBits(got.Predicted, want.Predicted) || !sameBits(got.Measured, want.Measured) ||
			!sameBits(got.AbsErrPct, want.AbsErrPct) || got.Circuit != want.Circuit || got.Model != want.Model {
			return fmt.Errorf("predict %+v: got %+v, want %+v", *s.o.pred, got, want)
		}
	case kindBDD:
		want, err := c.local.BDD(ctx, nil, *s.o.bdd, nil)
		if err != nil {
			return err
		}
		got := s.p.bdd
		if got.Nodes != want.Nodes || got.Degraded != want.Degraded {
			return fmt.Errorf("bdd %+v: got %d nodes, want %d", *s.o.bdd, got.Nodes, want.Nodes)
		}
	case kindOptimize:
		want, err := c.libraryJob(*s.o.opt)
		if err != nil {
			return err
		}
		got := s.p.job
		if !sameBits(got.BestScore, want.BestScore) || !sameBits(got.BaseScore, want.BaseScore) ||
			!reflect.DeepEqual(got.BestRecipe, want.BestRecipe) {
			return fmt.Errorf("job seed %d: got best %v %v, library run %v %v",
				s.o.opt.Seed, got.BestScore, got.BestRecipe, want.BestScore, want.BestRecipe)
		}
	}
	return nil
}

// simulate compares a simulate answer against the serial engine on the
// same operand streams.
func (c *checker) simulate(req service.SimulateRequest, got *service.SimulateResponse) error {
	sh := shape{req.Circuit, req.Width}
	mod := c.modules[sh]
	if mod == nil {
		var err error
		if mod, err = service.ModuleFor(req.Circuit, req.Width); err != nil {
			return err
		}
		c.modules[sh] = mod
	}
	as, bs := service.OperandStreams(req.Cycles, req.Width, req.Seed)
	ref, err := sim.Run(mod.Net, func(i int) []bool { return mod.InputVector(as[i], bs[i]) }, req.Cycles, sim.Options{Vdd: 1, Freq: 1})
	if err != nil {
		return err
	}
	if !sameBits(got.Power, ref.Power()) || !sameBits(got.SwitchedCap, ref.SwitchedCap) || got.Cycles != req.Cycles {
		return fmt.Errorf("%+v: power %v cap %v, serial engine %v cap %v",
			req, got.Power, got.SwitchedCap, ref.Power(), ref.SwitchedCap)
	}
	return nil
}

// jobParams builds the job parameters exactly as powerd's optimize
// handler does under serverConfig.
func jobParams(req service.OptimizeRequest) jobs.Params {
	cfg := serverConfig()
	req.Normalize()
	return jobs.Params{
		Spec:          req.Spec(),
		Token:         req.Token,
		Seed:          req.Seed,
		Candidates:    req.Candidates,
		EvalCycles:    req.EvalCycles,
		VerifyCycles:  req.VerifyCycles,
		MaxRecipeLen:  req.MaxRecipeLen,
		EvalSteps:     cfg.MaxSteps,
		CheckInterval: cfg.CheckInterval,
	}
}

// runJob submits params to a library job engine and waits for the
// job's terminal status.
func runJob(m *jobs.Manager, p jobs.Params) (*jobs.Status, error) {
	st, err := m.Submit(p)
	if err != nil {
		return nil, err
	}
	done, ok := m.Done(st.ID)
	if !ok {
		return nil, fmt.Errorf("job %s vanished", st.ID)
	}
	<-done
	st, ok = m.Get(st.ID)
	if !ok || st.Phase != "done" {
		return nil, fmt.Errorf("library job %s did not finish: %+v", p.Key(), st)
	}
	return st, nil
}

func (c *checker) libraryJob(req service.OptimizeRequest) (*jobs.Status, error) {
	if c.mgr == nil {
		c.mgr = jobs.New(jobs.Config{Workers: 1})
	}
	return runJob(c.mgr, jobParams(req))
}
