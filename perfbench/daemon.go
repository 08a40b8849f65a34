package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	// daemonConns is the closed loop's size: callers in one process, each
	// waiting for its reply before sending the next request.
	daemonConns = 2
	// daemonPool is the number of distinct formulas. Each classified
	// formula leaves several entries in the engine's 1024-entry memo
	// cache (compiled automaton, classification, plan probe), so the pool
	// does not fit; the Zipf head does.
	daemonPool = 4000
	// daemonZipfS is the Zipf exponent of formula popularity.
	daemonZipfS = 1.1
	// daemonWarmup requests per caller are discarded so the cache and
	// store hit ratios are steady when the timed window opens. A count,
	// not a time, so a slow host starts the window with the same cache
	// and store contents as a fast one.
	daemonWarmup = 4000
	// daemonSlot is the length of the alternating untraced/traced slots
	// of a traced run.
	daemonSlot = time.Second
)

// daemonRequest is one pool entry: the request body and the catalog
// class its classification must contain.
type daemonRequest struct {
	query classifyQuery
	body  []byte
}

func daemonPoolFor(seed int64, n int) ([]daemonRequest, error) {
	qs := classifyQueries(seed, 0, n)
	out := make([]daemonRequest, len(qs))
	for i, q := range qs {
		body, err := json.Marshal(map[string]string{"formula": q.Text})
		if err != nil {
			return nil, err
		}
		out[i] = daemonRequest{q, body}
	}
	return out, nil
}

// daemon is one running temporald process.
type daemon struct {
	cmd      *exec.Cmd
	addr     string
	stderrMu sync.Mutex
	stderr   []string      // the last lines the daemon wrote to stderr
	drained  chan struct{} // closed when stderr reaches EOF
}

// startDaemon spawns temporald on an ephemeral port with a persistent
// store and returns once it is listening, with the time that took.
func startDaemon(bin, store string) (*daemon, time.Duration, error) {
	d := &daemon{drained: make(chan struct{})}
	d.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-store", store)
	errPipe, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start temporald: %w", err)
	}
	addrc := make(chan string, 1)
	go d.readStderr(errPipe, addrc)
	select {
	case d.addr = <-addrc:
		return d, time.Since(start), nil
	case <-d.drained:
		err := d.cmd.Wait()
		return nil, 0, fmt.Errorf("temporald exited before listening (%v): %s", err, d.lastStderr())
	case <-time.After(20 * time.Second):
		d.kill()
		return nil, 0, errors.New("temporald did not listen within 20s")
	}
}

// readStderr keeps the daemon's stderr drained, announces the listening
// address once, and closes d.drained at EOF.
func (d *daemon) readStderr(r io.Reader, addrc chan<- string) {
	defer close(d.drained)
	const prefix = "listening on http://"
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if _, rest, ok := strings.Cut(line, prefix); ok {
			addr, _, _ := strings.Cut(rest, " ")
			addrc <- addr
		}
		d.stderrMu.Lock()
		d.stderr = append(d.stderr, line)
		if len(d.stderr) > 20 {
			d.stderr = d.stderr[1:]
		}
		d.stderrMu.Unlock()
	}
}

func (d *daemon) lastStderr() string {
	d.stderrMu.Lock()
	defer d.stderrMu.Unlock()
	return strings.Join(d.stderr, " | ")
}

// stop sends SIGTERM (drain plus store flush) and requires exit 0.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("SIGTERM temporald: %w", err)
	}
	select {
	case <-d.drained:
	case <-time.After(20 * time.Second):
		d.kill()
		return errors.New("temporald did not exit within 20s of SIGTERM")
	}
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("temporald exit after SIGTERM: %v: %s", err, d.lastStderr())
	}
	return nil
}

// kill ends the daemon unconditionally and reaps it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already exited is fine
	<-d.drained
	_ = d.cmd.Wait() // the exit status of a killed daemon says nothing
}

func (d *daemon) get(c *http.Client, path string) ([]byte, error) {
	resp, err := c.Get("http://" + d.addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

// scrape reads the daemon's counters from GET /metrics.
func (d *daemon) scrape(c *http.Client) (counters, error) {
	body, err := d.get(c, "/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(body)
}

// parseProm reads counter and gauge series ("name{labels} value") from
// Prometheus text exposition.
func parseProm(body []byte) (counters, error) {
	out := counters{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// reply is one request's outcome as the client saw it.
type reply struct {
	latency, server time.Duration
	err             error // transport error, non-200 or wrong answer
	input           string
}

// caller is one closed-loop connection: its own Zipf draw over the
// pool, seeded per connection.
type caller struct {
	client *http.Client
	url    string
	pool   []daemonRequest
	zipf   *rand.Zipf
}

// callerZipf is connection i's seeded popularity draw over n formulas.
func callerZipf(seed int64, i, n int) *rand.Zipf {
	rng := rand.New(rand.NewSource(seed*7919 + int64(i)))
	return rand.NewZipf(rng, daemonZipfS, 1, uint64(n-1))
}

func (c *caller) call() reply {
	req := c.pool[c.zipf.Uint64()]
	start := time.Now()
	resp, err := c.client.Post(c.url, "application/json", bytes.NewReader(req.body))
	if err != nil {
		return reply{latency: time.Since(start), err: err, input: req.query.Text}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	rep := reply{latency: lat, input: req.query.Text}
	if err != nil {
		rep.err = err
		return rep
	}
	if resp.StatusCode != http.StatusOK {
		rep.err = fmt.Errorf("status %s: %s", resp.Status, bytes.TrimSpace(body))
		return rep
	}
	var out struct {
		Classes    []string `json:"classes"`
		DurationUS int64    `json:"duration_us"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		rep.err = fmt.Errorf("response body: %w", err)
		return rep
	}
	rep.server = time.Duration(out.DurationUS) * time.Microsecond
	if !slices.Contains(out.Classes, req.query.Bound.String()) {
		rep.err = fmt.Errorf("classes %v miss the catalog join %v of %s", out.Classes, req.query.Bound, req.query.Name)
	}
	return rep
}

// drive runs every caller in a closed loop — for d when d > 0, else for
// n requests per caller — and returns their replies.
func drive(callers []*caller, d time.Duration, n int) [][]reply {
	out := make([][]reply, len(callers))
	until := time.Now().Add(d)
	var wg sync.WaitGroup
	for i, c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for (d > 0 && time.Now().Before(until)) || (d == 0 && len(out[i]) < n) {
				out[i] = append(out[i], c.call())
			}
		}()
	}
	wg.Wait()
	return out
}

// runDaemon is the daemon-mixed workload: temporald with a fresh
// persistent store under a closed loop of daemonConns callers POSTing
// /classify with Zipf-skewed formulas.
func runDaemon(r *report) error {
	if r.opts.temporald == "" {
		return errors.New("daemon-mixed needs -temporald")
	}
	pool, err := daemonPoolFor(r.opts.seed, r.opts.size(daemonPool, 200))
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(r.opts.workDir, "daemon-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Set-up: spawn to listening, store open included, on a fresh store
	// each time. Only the last spawn serves the load; the others have
	// served nothing and are killed rather than drained (temporald
	// announces its address before it installs its SIGTERM handler, so a
	// SIGTERM this early can end it without a drain).
	var d *daemon
	for i := 0; i < setupRuns; i++ {
		dd, took, err := startDaemon(r.opts.temporald, filepath.Join(dir, fmt.Sprintf("store-%d.log", i)))
		if err != nil {
			return err
		}
		r.setup = append(r.setup, took)
		if i < setupRuns-1 {
			dd.kill()
			continue
		}
		d = dd
	}
	defer func() {
		if d != nil {
			d.kill()
		}
	}()

	client := &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: daemonConns, DisableCompression: true},
	}
	defer client.CloseIdleConnections()
	callers := make([]*caller, daemonConns)
	for i := range callers {
		callers[i] = &caller{client: client, url: "http://" + d.addr + "/classify", pool: pool,
			zipf: callerZipf(r.opts.seed, i, len(pool))}
	}
	r.conns = daemonConns
	// The callers mostly wait for replies; one P keeps this process's
	// scheduler from spinning on the CPUs temporald needs.
	runtime.GOMAXPROCS(1)
	r.notes["client_gomaxprocs"] = 1
	r.notes["pool"] = len(pool)

	judge := func(batches [][]reply, traced bool) {
		for _, b := range batches {
			for _, rep := range b {
				r.judge(rep.input, rep.err, true, "")
				if rep.err != nil {
					continue
				}
				r.record(rep.latency, traced)
				if traced {
					r.tr.add("temporald.server", rep.server)
					r.tr.add("temporald.transport", rep.latency-rep.server)
					r.serverLat = append(r.serverLat, rep.server)
				}
			}
		}
	}
	for _, b := range drive(callers, 0, r.opts.size(daemonWarmup, 200)) {
		for _, rep := range b {
			r.judge(rep.input, rep.err, true, "")
		}
	}

	before, err := d.scrape(client)
	if err != nil {
		return err
	}
	pid := strconv.Itoa(d.cmd.Process.Pid)
	slot := daemonSlot
	if r.opts.smoke {
		slot = 200 * time.Millisecond
	}
	// The window is a run of slots; a traced run alternates untraced and
	// traced slots and sums the daemon's counters over the traced ones.
	start := time.Now()
	for i := 0; !r.done(start); i++ {
		traced := r.opts.trace && i%2 == 1
		var b0 counters
		if traced {
			if b0, err = d.scrape(client); err != nil {
				return err
			}
		}
		if err := resetPeakRSS(pid); err != nil {
			return err
		}
		t0 := time.Now()
		batches := drive(callers, slot, 0)
		took := time.Since(t0)
		kb, err := peakRSSKB(pid)
		if err != nil {
			return fmt.Errorf("temporald peak RSS: %w", err)
		}
		judge(batches, traced)
		r.endPeriod(took, traced, kb)
		if traced {
			b1, err := d.scrape(client)
			if err != nil {
				return err
			}
			r.cnt.add(b1.delta(b0))
		}
	}
	after, err := d.scrape(client)
	if err != nil {
		return err
	}
	win := after.delta(before)
	r.notes["window_counters"] = map[string]float64{
		"engine_cache_hits":      win["engine_cache_hits"],
		"engine_cache_misses":    win["engine_cache_misses"],
		"engine_cache_evictions": win["engine_cache_evictions"],
		"store_hits":             win["store_hits"],
		"store_misses":           win["store_misses"],
		"store_writes":           win["store_writes"],
		"store_dropped_writes":   win["store_dropped_writes"],
	}
	if health, err := d.get(client, "/healthz"); err != nil || !bytes.Contains(health, []byte(`"store_enabled":true`)) {
		r.checks["store.enabled"] = fmt.Sprintf("fail: /healthz %s %v", bytes.TrimSpace(health), err)
	} else {
		r.checks["store.enabled"] = "pass"
	}

	client.CloseIdleConnections()
	err = d.stop()
	d = nil
	r.judge("temporald SIGTERM", err, true, "")
	return nil
}
