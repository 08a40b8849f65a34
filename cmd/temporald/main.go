// Command temporald is the classification daemon: a long-lived process
// serving temporal-hierarchy classification over HTTP, fronted by the
// introspection surface of internal/obshttp. It is the
// classification-as-a-service skeleton: one POST /classify endpoint over
// a shared temporal.Engine (so the memo cache warms across requests),
// plus /metrics, /healthz, /debug/vars and /debug/pprof for operations.
//
// Every request is minted a TraceID, returned in the X-Trace-Id response
// header and JSON body; with -trace or -slow-op-log attached the same id
// stamps the request's JSONL span records, so a slow scrape-side latency
// observation joins to its server-side trace by grep.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	temporal "repro"
	"repro/internal/budget"
	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/obshttp"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "temporald:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("temporald", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8123", "listen address (use :0 for an ephemeral port)")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once listening (for scripts binding :0)")
	cache := fs.Int("cache", 0, "engine memo-cache entries (0 = default)")
	slowOpLog := fs.String("slow-op-log", "", "slow-op JSONL destination (default stderr)")
	probe := fs.String("probe", "", "client mode: GET /healthz and /metrics from a running daemon at this address, print to stdout, exit")
	probeClassify := fs.String("classify", "", "with -probe: POST this formula to /classify first and print the response (a curl-free smoke client)")
	// The daemon shares the fleet-wide -jobs/-budget/-trace/-slow-op
	// knobs (plus -store for cross-restart warm starts) but owns
	// -timeout: it is a per-request deadline here, not a run deadline, so
	// it is bound directly with its own default.
	common := cli.Register(fs, cli.FlagJobs|cli.FlagBudget|cli.FlagTrace|cli.FlagSlowOp|cli.FlagStore)
	fs.DurationVar(&common.Timeout, "timeout", 30*time.Second, "per-request wall-clock deadline (0 = none)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *probe != "" {
		return runProbe(*probe, *probeClassify, stdout)
	}

	if *slowOpLog != "" {
		f, err := os.Create(*slowOpLog)
		if err != nil {
			return err
		}
		defer f.Close()
		common.SlowOpW = f
	}
	finish, err := common.SetupObs(stderr)
	if err != nil {
		return err
	}
	defer func() { _ = finish() }()

	// The per-request budget is attached by the handler (so spend is
	// readable per response), not via engine options: only cache and
	// parallelism configure the shared engine.
	srv := newServer(common.EngineOptions(cacheOpts(*cache)...), common.Timeout, common.Budget)
	srv.eng.RegisterStatsGauges(nil)
	mux := obshttp.NewMux(nil, srv.storeHealth)
	mux.Handle("/classify", srv)

	// Catch SIGTERM before the daemon announces itself (addr-file,
	// listening line): a signal sent the moment it is reachable must drain
	// and flush the store, not kill the process.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(stderr, "temporald: listening on http://%s (POST /classify, GET /metrics)\n", ln.Addr())

	httpSrv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case sig := <-sigc:
		fmt.Fprintf(stderr, "temporald: %v, draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := httpSrv.Shutdown(ctx)
		// In-flight requests are done; flush write-behind verdicts so the
		// next boot warm-starts from everything this process computed.
		if ferr := common.FinishEngine(srv.eng, stderr); err == nil {
			err = ferr
		}
		return err
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}

func cacheOpts(cache int) []temporal.EngineOption {
	if cache > 0 {
		return []temporal.EngineOption{temporal.WithCacheSize(cache)}
	}
	return nil
}

// server is the /classify handler over one shared engine.
type server struct {
	eng          *temporal.Engine
	timeout      time.Duration
	budgetStates int64

	histLatency *obs.Histogram
}

func newServer(opts []temporal.EngineOption, timeout time.Duration, budgetStates int64) *server {
	return &server{
		eng:          temporal.NewEngine(opts...),
		timeout:      timeout,
		budgetStates: budgetStates,
		histLatency:  obs.NewHistogram("temporald.classify.latency_us"),
	}
}

// storeHealth contributes the verdict store's circuit state to
// /healthz: whether the persistent tier is serving, how many records it
// holds, and — when it has self-disabled — why. Daemons without -store
// report enabled=false with an empty reason.
func (s *server) storeHealth() map[string]any {
	st := s.eng.StoreStats()
	h := map[string]any{
		"store_enabled": st.Enabled,
		"store_records": st.Records,
	}
	if st.Reason != "" {
		h["store_reason"] = st.Reason
	}
	return h
}

// classifyRequest is the POST /classify body.
type classifyRequest struct {
	Formula string   `json:"formula"`
	Props   []string `json:"props,omitempty"`
}

// classifyResponse is the success body. Error responses carry
// {"trace_id","error"} with a matching HTTP status instead.
type classifyResponse struct {
	TraceID        string   `json:"trace_id"`
	Formula        string   `json:"formula"`
	Class          string   `json:"class"`
	Classes        []string `json:"classes"`
	ObligationRank int      `json:"obligation_rank,omitempty"`
	ReactivityRank int      `json:"reactivity_rank"`
	States         int      `json:"states"`
	Pairs          int      `json:"pairs"`
	// Plan is the query-planner tier the compiled automaton lands in
	// (from the semantic probe) with the planner's one-line rationale —
	// the service form of speccheck -explain.
	Plan       string `json:"plan"`
	PlanReason string `json:"plan_reason,omitempty"`
	// BudgetStates/BudgetSteps report the request's spend against the
	// daemon's -budget governance (absent when unlimited).
	BudgetStates int64 `json:"budget_states,omitempty"`
	BudgetSteps  int64 `json:"budget_steps,omitempty"`
	DurationUS   int64 `json:"duration_us"`
}

// respCounter returns the labeled response counter for an HTTP status.
// The label set is the closed set of statuses this handler emits, so
// cardinality is bounded by construction.
func respCounter(code int) *obs.Counter {
	return obs.Default().Counter("temporald.responses",
		obs.Label{Key: "code", Value: strconv.Itoa(code)})
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	ctx, id := obs.EnsureTraceID(r.Context())
	w.Header().Set("X-Trace-Id", string(id))
	w.Header().Set("Content-Type", "application/json")

	code, body := s.handle(ctx, r, id)
	respCounter(code).Inc()
	s.histLatency.Observe(time.Since(start).Microseconds())
	w.WriteHeader(code)
	if resp, ok := body.(*classifyResponse); ok {
		resp.DurationUS = time.Since(start).Microseconds()
	}
	_ = json.NewEncoder(w).Encode(body)
}

// handle runs the request and returns status plus response body —
// either *classifyResponse or an errorBody.
func (s *server) handle(ctx context.Context, r *http.Request, id obs.TraceID) (int, any) {
	fail := func(code int, err error) (int, any) {
		return code, map[string]string{"trace_id": string(id), "error": err.Error()}
	}
	if r.Method != http.MethodPost {
		return fail(http.StatusMethodNotAllowed, errors.New("use POST"))
	}
	var req classifyRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		return fail(http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
	}
	f, err := temporal.ParseFormula(req.Formula)
	if err != nil {
		return fail(http.StatusBadRequest, err)
	}
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	// Attach the per-request budget here rather than via engine options
	// so the handler can read the spend back for the response. Planner
	// probes and fast paths charge the same meter as every other
	// analysis, and a budget abort inside the planner propagates (it
	// never falls back), so exhaustion maps to 503 on every path.
	var bud *budget.Budget
	if s.budgetStates > 0 {
		bud = budget.New(s.budgetStates, 64*s.budgetStates)
		ctx = budget.With(ctx, bud)
	}
	aut, err := s.eng.CompileFormula(ctx, f, req.Props)
	if err != nil {
		return fail(statusFor(err), err)
	}
	c, err := s.eng.ClassifyAutomaton(ctx, aut)
	if err != nil {
		return fail(statusFor(err), err)
	}
	_, dec, err := s.eng.PlanAutomaton(ctx, aut)
	if err != nil {
		return fail(statusFor(err), err)
	}
	classes := make([]string, 0, 6)
	for _, cl := range c.Classes() {
		classes = append(classes, cl.String())
	}
	resp := &classifyResponse{
		TraceID:        string(id),
		Formula:        f.String(),
		Class:          c.Lowest().String(),
		Classes:        classes,
		ObligationRank: c.ObligationRank,
		ReactivityRank: c.ReactivityRank,
		States:         aut.NumStates(),
		Pairs:          aut.NumPairs(),
		Plan:           dec.Tier.String(),
		PlanReason:     dec.Reason,
	}
	if bud != nil {
		resp.BudgetStates = bud.States()
		resp.BudgetSteps = bud.Steps()
	}
	return http.StatusOK, resp
}

// statusFor maps engine errors onto HTTP statuses: resource exhaustion
// and timeouts are the service's fault or load (503), panics are bugs
// (500), anything else in a parsed-and-compiled request is a bad input
// (400).
func statusFor(err error) int {
	var ierr *temporal.InternalError
	switch {
	case errors.Is(err, temporal.ErrBudgetExceeded):
		return http.StatusServiceUnavailable
	case errors.Is(err, temporal.ErrCanceled),
		errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	case errors.As(err, &ierr):
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// runProbe is the -probe client mode: it fetches /healthz and /metrics
// from a running daemon and prints both to stdout. With a -classify
// formula it first POSTs that to /classify and prints the verdict, so a
// shell script can exercise the full request path — scripts/check.sh
// uses it as a self-contained smoke client, avoiding a curl dependency.
func runProbe(addr, formula string, w io.Writer) error {
	client := &http.Client{Timeout: 5 * time.Second}
	if formula != "" {
		reqBody, err := json.Marshal(classifyRequest{Formula: formula})
		if err != nil {
			return err
		}
		resp, err := client.Post("http://"+addr+"/classify", "application/json", bytes.NewReader(reqBody))
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST /classify: %s: %s", resp.Status, body)
		}
		fmt.Fprintf(w, "== /classify ==\n%s", body)
	}
	for _, path := range []string{"/healthz", "/metrics"} {
		resp, err := client.Get("http://" + addr + path)
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: %s", path, resp.Status)
		}
		fmt.Fprintf(w, "== %s ==\n%s", path, body)
	}
	return nil
}
