package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// minSamples is the smallest latency sample count whose p99 has at least
// ten samples beyond it (nearest-rank: ⌈0.99·n⌉ ≤ n − 10).
const minSamples = 1000

// percentile returns the nearest-rank q-quantile of sorted durations.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// beyond reports how many samples lie strictly above the nearest-rank
// q-quantile position.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

func sortedCopy(ds []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), ds...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func median(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(medianFloat(xs))
}

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSKB reads VmHWM (peak resident set, kB) from a /proc status file
// ("self" or a pid).
func peakRSSKB(pid string) (int64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, os.ErrNotExist
}

// setupRuns is how many times a run repeats its set-up; the median is
// reported as setup_s.
const setupRuns = 15

// measureProcessSetup times a cold start of an in-process workload:
// from spawning a fresh process of this binary to its cold engine being
// ready (runtime and package initialization included, input generation
// excluded). It repeats setupRuns times.
func (r *report) measureProcessSetup() error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("set-up probe: %w", err)
	}
	for i := 0; i < setupRuns; i++ {
		cmd := exec.Command(self, "-setup-probe")
		out, err := cmd.StdoutPipe()
		if err != nil {
			return fmt.Errorf("set-up probe: %w", err)
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("set-up probe: %w", err)
		}
		line, rerr := bufio.NewReader(out).ReadString('\n')
		d := time.Since(start)
		werr := cmd.Wait()
		if rerr != nil || line != "ready\n" || werr != nil {
			return fmt.Errorf("set-up probe: read %q (%v), exit %v", line, rerr, werr)
		}
		r.setup = append(r.setup, d)
	}
	return nil
}

// resetPeakRSS resets VmHWM to the current resident set (Linux
// clear_refs), so the next reading is the peak since now.
func resetPeakRSS(pid string) error {
	return os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0)
}

// tracer records the benchmark's own spans around calls into each
// layer's public functions: busy time and call count per layer name. A
// nil tracer runs the calls untimed, which is the untraced path.
type tracer struct {
	busy  map[string]time.Duration
	calls map[string]int64
}

func newTracer() *tracer {
	return &tracer{busy: map[string]time.Duration{}, calls: map[string]int64{}}
}

// do runs f, charging its wall time to layer when tracing.
func (t *tracer) do(layer string, f func()) {
	if t == nil {
		f()
		return
	}
	start := time.Now()
	f()
	t.add(layer, time.Since(start))
}

func (t *tracer) add(layer string, d time.Duration) {
	if t == nil {
		return
	}
	t.busy[layer] += d
	t.calls[layer]++
}

// meanMS is the mean per-call time of a layer in milliseconds (0 when
// the workload never called it).
func (t *tracer) meanMS(layer string) float64 {
	if t.calls[layer] == 0 {
		return 0
	}
	return ms(t.busy[layer]) / float64(t.calls[layer])
}

// counters holds counter values keyed by their Prometheus series name
// (engine_cache_hits, plan_path{tier="safety"}), so in-process registry
// snapshots and a daemon's /metrics scrape line up.
type counters map[string]float64

// promKey maps a registry metric name to its exposed name.
func promKey(name string) string { return obs.PromName(name) }

// snapshot reads the process-global registry: the counters the program
// exports and an operator scrapes.
func snapshot() counters {
	out := counters{}
	for _, m := range obs.Default().Snapshot() {
		if m.Kind == "counter" {
			out[promKey(m.Name)+strings.TrimPrefix(m.FullName(), m.Name)] = float64(m.Value)
		}
	}
	return out
}

// delta returns after − before for every key of after.
func (after counters) delta(before counters) counters {
	out := counters{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

func (c counters) add(d counters) {
	for k, v := range d {
		c[k] += v
	}
}

// ratio returns num/den, or 0 when den is 0 (a layer the workload
// bypasses).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// hostReference times a fixed workload that does not touch the program
// under test — seeded sorting and map updates — as the median of five.
// Read at the start and end of a run, it shows how fast the (possibly
// shared) host was, so runs taken at different times can be compared.
func hostReference() time.Duration {
	ds := make([]time.Duration, 5)
	for i := range ds {
		rng := rand.New(rand.NewSource(1))
		start := time.Now()
		xs := make([]int, 100_000)
		m := make(map[int]int)
		for j := range xs {
			xs[j] = rng.Int()
			m[xs[j]%20_000] += j
		}
		sort.Ints(xs)
		ds[i] = time.Since(start)
		if len(m) == 0 || xs[0] > xs[len(xs)-1] {
			panic("host reference: impossible result")
		}
	}
	return median(ds)
}
