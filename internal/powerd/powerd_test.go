package powerd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"hlpower/internal/budget"
	"hlpower/internal/resilience"
)

// testConfig is a small, fast configuration for unit tests.
func testConfig() Config {
	return Config{
		Workers:          2,
		QueueDepth:       2,
		RequestTimeout:   2 * time.Second,
		MaxSteps:         5_000_000,
		CheckInterval:    64,
		Retry:            resilience.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Multiplier: 2},
		FailureThreshold: 3,
		OpenTimeout:      50 * time.Millisecond,
		HalfOpenProbes:   1,
	}
}

func post(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, map[string]any) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s: undecodable body: %v", path, err)
	}
	return resp, out
}

func TestEndpointsHappyPath(t *testing.T) {
	s := NewServer(testConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, out := post(t, ts, "/v1/simulate", simulateRequest{Circuit: "adder", Width: 8, Cycles: 200, Seed: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: %d %v", resp.StatusCode, out)
	}
	if out["power"].(float64) <= 0 {
		t.Fatalf("simulate returned nonpositive power: %v", out)
	}

	resp, out = post(t, ts, "/v1/rank", rankRequest{Width: 6, Cycles: 120, Seed: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rank: %d %v", resp.StatusCode, out)
	}
	if out["best"] == "" {
		t.Fatalf("rank picked no winner: %v", out)
	}

	resp, out = post(t, ts, "/v1/bdd", bddRequest{Function: "majority", Vars: 9})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bdd: %d %v", resp.StatusCode, out)
	}
	if out["nodes"].(float64) <= 0 {
		t.Fatalf("bdd returned no nodes: %v", out)
	}

	resp, out = post(t, ts, "/v1/predict", predictRequest{Circuit: "adder", Width: 4, Model: "pfa", Train: 150, Eval: 100, Seed: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: %d %v", resp.StatusCode, out)
	}
	if out["measured"].(float64) <= 0 {
		t.Fatalf("predict measured nothing: %v", out)
	}

	if got := s.Snapshot().Served; got != 4 {
		t.Fatalf("served counter = %d, want 4", got)
	}
}

func TestInputErrorsAre400(t *testing.T) {
	s := NewServer(testConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		path string
		body any
	}{
		{"/v1/simulate", simulateRequest{Circuit: "nonsense", Width: 8, Cycles: 100}},
		{"/v1/simulate", simulateRequest{Circuit: "adder", Width: 99, Cycles: 100}},
		{"/v1/simulate", simulateRequest{Circuit: "adder", Width: 8, Cycles: -1}},
		{"/v1/bdd", bddRequest{Function: "bogus", Vars: 4}},
		{"/v1/bdd", bddRequest{Function: "parity", Vars: 99}},
		{"/v1/predict", predictRequest{Circuit: "adder", Width: 4, Model: "bogus", Train: 100, Eval: 100}},
		{"/v1/rank", map[string]any{"width": 4, "cycles": 100, "unknown_field": 1}},
	}
	for _, c := range cases {
		resp, out := post(t, ts, c.path, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s %v: got %d %v, want 400", c.path, c.body, resp.StatusCode, out)
		}
	}
	// Input errors must not have tripped any breaker.
	for _, name := range Subsystems {
		if st := s.Breaker(name).Stats(); st.Opened > 0 {
			t.Fatalf("breaker %s opened on input errors: %+v", name, st)
		}
	}
}

// TestInjectedFaultsOpenBreakerThen503 drives the deterministic fault
// plan through the serving path: requests fail with 503, the breaker
// opens at the threshold, and subsequent requests are rejected by the
// breaker itself with a Retry-After hint.
func TestInjectedFaultsOpenBreakerThen503(t *testing.T) {
	cfg := testConfig()
	cfg.CheckInterval = 1
	cfg.Retry.MaxAttempts = 1 // one attempt per request: threshold == request count
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	s.SetFaultPlan(budget.FaultPlan{FailAtCheck: 1})
	for i := 0; i < cfg.FailureThreshold; i++ {
		resp, out := post(t, ts, "/v1/simulate", simulateRequest{Circuit: "adder", Width: 4, Cycles: 100, Seed: 1})
		if resp.StatusCode != http.StatusServiceUnavailable || out["kind"] != "budget-exceeded" {
			t.Fatalf("faulted request %d: got %d %v", i, resp.StatusCode, out)
		}
	}
	if st := s.Breaker("sim").State(); st != resilience.Open {
		t.Fatalf("breaker state after threshold failures = %v, want open", st)
	}
	resp, out := post(t, ts, "/v1/simulate", simulateRequest{Circuit: "adder", Width: 4, Cycles: 100, Seed: 1})
	if resp.StatusCode != http.StatusServiceUnavailable || out["kind"] != "breaker-open" {
		t.Fatalf("open-breaker request: got %d %v", resp.StatusCode, out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("open-breaker rejection missing Retry-After")
	}

	// Clearing the plan and waiting out the open window recovers: the
	// half-open probe succeeds and the breaker closes.
	s.SetFaultPlan(budget.FaultPlan{})
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ := post(t, ts, "/v1/simulate", simulateRequest{Circuit: "adder", Width: 4, Cycles: 100, Seed: 1})
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never recovered after plan cleared")
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := s.Breaker("sim").Stats()
	if st.Opened < 1 || st.HalfOpened < 1 || st.ClosedFromHalfOpen < 1 {
		t.Fatalf("breaker lifecycle incomplete: %+v", st)
	}
}

// TestShedWith429RetryAfter fills every worker slot and the whole wait
// queue, then asserts the overflow is shed with 429 + Retry-After.
func TestShedWith429RetryAfter(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 1
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the only worker slot directly.
	s.slots <- struct{}{}
	defer func() { <-s.slots }()

	// Overfill the queue: QueueDepth+3 concurrent requests while no
	// slot can free up. At least 3 must shed.
	const extra = 3
	total := cfg.QueueDepth + extra
	codes := make(chan int, total)
	retryAfter := make(chan string, total)
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
			defer cancel()
			body, _ := json.Marshal(simulateRequest{Circuit: "adder", Width: 4, Cycles: 100})
			req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/simulate", bytes.NewReader(body))
			resp, err := ts.Client().Do(req)
			if err != nil {
				codes <- 0
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
			retryAfter <- resp.Header.Get("Retry-After")
		}()
	}
	wg.Wait()
	close(codes)
	close(retryAfter)
	shed := 0
	for c := range codes {
		if c == http.StatusTooManyRequests {
			shed++
		}
	}
	if shed < extra {
		t.Fatalf("shed %d requests, want >= %d", shed, extra)
	}
	for ra := range retryAfter {
		if ra == "" {
			t.Fatal("a 429/queued response is missing Retry-After")
		}
	}
	if s.Snapshot().Shed < int64(extra) {
		t.Fatalf("shed counter %d, want >= %d", s.Snapshot().Shed, extra)
	}
}

func TestDrainRejectsNewWorkAndWaits(t *testing.T) {
	s := NewServer(testConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain with no in-flight work: %v", err)
	}
	resp, out := post(t, ts, "/v1/simulate", simulateRequest{Circuit: "adder", Width: 4, Cycles: 100})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request: got %d %v, want 503", resp.StatusCode, out)
	}
	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", resp.StatusCode)
	}
}

// Mid-drain requests must tell the client two things: do not reuse
// this connection (it is going away), and how long to wait before
// retrying — the rest of the drain window, after which a restarted
// listener can serve the retry.
func TestDrainMidDrainHeaders(t *testing.T) {
	cfg := testConfig()
	cfg.DrainTimeout = 45 * time.Second
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	buf, _ := json.Marshal(simulateRequest{Circuit: "adder", Width: 4, Cycles: 100})
	resp, err := ts.Client().Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("mid-drain request = %d, want 503", resp.StatusCode)
	}
	if !resp.Close {
		t.Error("mid-drain response did not carry Connection: close")
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("mid-drain response has no Retry-After")
	}
	secs, err := strconv.Atoi(ra)
	if err != nil {
		t.Fatalf("Retry-After %q not an integer", ra)
	}
	// The hint is the remaining drain window: a little under the full
	// 45s by the time the request lands, never the 2s request timeout.
	if secs < 40 || secs > 45 {
		t.Errorf("Retry-After = %ds, want within the 45s drain window", secs)
	}
}

func TestHealthReadyStats(t *testing.T) {
	s := NewServer(testConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, path := range []string{"/healthz", "/readyz", "/v1/stats"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d, want 200", path, resp.StatusCode)
		}
	}
	var st Stats
	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(st.Breakers) != len(Subsystems) {
		t.Fatalf("stats exposes %d breakers, want %d", len(st.Breakers), len(Subsystems))
	}
}

// TestSimulateMatchesLibrary pins that the service returns the same
// physics as calling the estimation engine directly.
func TestSimulateMatchesLibrary(t *testing.T) {
	s := NewServer(testConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, out := post(t, ts, "/v1/simulate", simulateRequest{Circuit: "multiplier", Width: 4, Cycles: 300, Seed: 7})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: %d %v", resp.StatusCode, out)
	}
	res, _, err := s.simulateHedged(httptest.NewRequest("POST", "/v1/simulate", nil),
		simulateRequest{Circuit: "multiplier", Width: 4, Cycles: 300, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got := out["switched_cap"].(float64); got != res.SwitchedCap {
		t.Fatalf("service switched_cap %v != library %v", got, res.SwitchedCap)
	}
}

func TestHedgedSimulate(t *testing.T) {
	cfg := testConfig()
	cfg.HedgeDelay = time.Nanosecond // backup fires essentially immediately
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, out := post(t, ts, "/v1/simulate", simulateRequest{Circuit: "adder", Width: 6, Cycles: 400, Seed: 11})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged simulate: %d %v", resp.StatusCode, out)
	}
	if out["power"].(float64) <= 0 {
		t.Fatalf("hedged simulate returned nonpositive power: %v", out)
	}
}

func TestRetryAfterHintFloor(t *testing.T) {
	s := NewServer(testConfig())
	if s.retryAfterHint() < time.Second {
		t.Fatal("Retry-After hint below one second floor")
	}
}

func ExampleServer() {
	s := NewServer(Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, _ := json.Marshal(simulateRequest{Circuit: "adder", Width: 4, Cycles: 100, Seed: 1})
	resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		fmt.Println(err)
		return
	}
	defer resp.Body.Close()
	var out simulateResponse
	_ = json.NewDecoder(resp.Body).Decode(&out)
	fmt.Println(resp.StatusCode, out.Circuit, out.Cycles)
	// Output: 200 adder 100
}

// TestStatsSurfaceBDDTables: serving BDD requests must accumulate the
// manager's unique/ITE table counters into /v1/stats, with the
// hits+misses == lookups invariant intact, and the simulate endpoint
// must report which kernel served it.
func TestStatsSurfaceBDDTables(t *testing.T) {
	s := NewServer(testConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, out := post(t, ts, "/v1/simulate", simulateRequest{Circuit: "multiplier", Width: 6, Cycles: 500, Seed: 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: %d %v", resp.StatusCode, out)
	}
	if out["kernel"] != "fused" {
		t.Fatalf("combinational zero-delay simulate served by kernel %v, want fused", out["kernel"])
	}

	for i := 0; i < 3; i++ {
		resp, out = post(t, ts, "/v1/bdd", bddRequest{Function: "parity", Vars: 8})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("bdd: %d %v", resp.StatusCode, out)
		}
	}
	st := s.Snapshot().BDDTables
	// Truth-table builds hash-cons through the unique table; the ITE
	// computed table only sees traffic from boolean operations, so its
	// counters may legitimately be zero here — the invariant must hold
	// for both either way.
	if st.Unique.Lookups == 0 {
		t.Fatal("unique: no lookups accumulated in /v1/stats")
	}
	if st.Unique.Hits+st.Unique.Misses != st.Unique.Lookups {
		t.Fatalf("unique: hits %d + misses %d != lookups %d", st.Unique.Hits, st.Unique.Misses, st.Unique.Lookups)
	}
	if st.ITE.Hits+st.ITE.Misses != st.ITE.Lookups {
		t.Fatalf("ite: hits %d + misses %d != lookups %d", st.ITE.Hits, st.ITE.Misses, st.ITE.Lookups)
	}

	// The JSON endpoint exposes the same counters.
	httpResp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var body struct {
		BDDTables struct {
			Unique struct {
				Lookups int64 `json:"lookups"`
			} `json:"unique"`
		} `json:"bdd_tables"`
	}
	if err := json.NewDecoder(httpResp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.BDDTables.Unique.Lookups != st.Unique.Lookups {
		t.Fatalf("JSON stats lookups %d != snapshot %d", body.BDDTables.Unique.Lookups, st.Unique.Lookups)
	}
}

// TestPredictTrainingChargedToBudget: a predict's training simulation
// is charged to the request budget, so a long training stream with a
// short evaluation stream exhausts MaxSteps — a typed budget error,
// counted by the predict breaker — instead of running unbounded.
func TestPredictTrainingChargedToBudget(t *testing.T) {
	cfg := testConfig()
	cfg.MaxSteps = 200_000
	cfg.Retry.MaxAttempts = 1
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ok := predictRequest{Circuit: "adder", Width: 8, Model: "io", Train: 64, Eval: 64, Seed: 1}
	if resp, out := post(t, ts, "/v1/predict", ok); resp.StatusCode != http.StatusOK {
		t.Fatalf("small predict: %d %v", resp.StatusCode, out)
	}
	heavy := ok
	heavy.Train = 100_000
	resp, out := post(t, ts, "/v1/predict", heavy)
	if resp.StatusCode != http.StatusServiceUnavailable || out["kind"] != "budget-exceeded" {
		t.Fatalf("train-heavy predict: got %d %v, want 503 budget-exceeded", resp.StatusCode, out)
	}
	if st := s.Breaker("predict").Stats(); st.Failures != 1 || st.Successes != 1 {
		t.Fatalf("predict breaker: %+v, want 1 success and 1 failure", st)
	}
}
