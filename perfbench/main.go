// Command perfbench runs one workload of the repository's end-to-end
// benchmark and prints its metrics. It is normally started by run.py,
// which builds it and temporald from the same checkout:
//
//	perfbench -workload spec-classify -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it is a
// report with the host facts, sample counts, self-checks (including any
// skipped for lack of CPUs) and the first failing inputs.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"repro/internal/engine"
)

// options is one run's configuration.
type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	smoke      bool   // tiny inputs, one pass, no p99 sample floor
	temporald  string // daemon binary, for daemon-mixed
	workDir    string // scratch directory for store files
	commit     string // recorded in the report
	sourceHash string // recorded in the report
}

// size picks the full or the smoke input size.
func (o options) size(full, smoke int) int {
	if o.smoke {
		return smoke
	}
	return full
}

var workloads = map[string]func(*report) error{
	"spec-classify": runClassify,
	"mc-scenarios":  runScenarios,
	"spec-contains": runContains,
	"daemon-mixed":  runDaemon,
}

func main() {
	var o options
	var trace int
	probe := flag.Bool("setup-probe", false, "build a cold engine, print ready and exit (times process set-up)")
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	flag.BoolVar(&o.smoke, "smoke", false, "smoke configuration: tiny inputs, one pass")
	flag.StringVar(&o.temporald, "temporald", "", "temporald binary (daemon-mixed)")
	flag.StringVar(&o.workDir, "workdir", os.TempDir(), "directory for store files")
	flag.StringVar(&o.commit, "commit", "unknown", "git commit of the measured tree")
	flag.StringVar(&o.sourceHash, "source-hash", "unknown", "hash of the measured sources")
	flag.Parse()
	if *probe {
		_ = engine.New()
		fmt.Println("ready")
		return
	}
	o.trace = trace == 1
	run, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds > 0 and -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	r := newReport(o)
	if err := run(r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := r.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// hostFacts are recorded with every result: the numbers compare only
// like-for-like on one host.
func hostFacts(o options) map[string]any {
	return map[string]any{
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  hostProcs,
		"go_version":  runtime.Version(),
		"os_arch":     runtime.GOOS + "/" + runtime.GOARCH,
		"cpu_model":   cpuModel(),
		"git_commit":  o.commit,
		"source_hash": o.sourceHash,
	}
}

// hostProcs is GOMAXPROCS as the process started; daemon-mixed lowers
// its own client's afterwards.
var hostProcs = runtime.GOMAXPROCS(0)

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the untraced run's metrics, as in BENCHMARK.json.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"ok_frac", "ratio"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the traced run's metrics, as in BENCHMARK.json. Every
// workload reports all of them; a layer the workload bypasses reads 0.
var perLayer = []struct{ name, unit string }{
	{"ltl.parse_us", "us"},
	{"engine.compile_ms", "ms"},
	{"engine.classify_ms", "ms"},
	{"engine.plan_ms", "ms"},
	{"ts.build_ms", "ms"},
	{"engine.verify_ms.safety", "ms"},
	{"engine.verify_ms.streett", "ms"},
	{"engine.contains_ms.safety", "ms"},
	{"engine.contains_ms.guarantee", "ms"},
	{"engine.contains_ms.obligation", "ms"},
	{"engine.contains_ms.recurrence", "ms"},
	{"engine.contains_ms.persistence", "ms"},
	{"engine.contains_ms.streett", "ms"},
	{"temporald.server_ms", "ms"},
	{"temporald.server_p99_ms", "ms"},
	{"temporald.transport_ms", "ms"},
	{"compile.past2dfa.states", "count/op"},
	{"omega.product.states", "count/op"},
	{"autkern.scc.runs", "count/op"},
	{"autkern.scc.nodes", "count/op"},
	{"mc.lazy.nodes_materialized", "count/op"},
	{"mc.refine.rounds", "count/op"},
	{"mc.parallel.waves", "count/op"},
	{"mc.parallel.shards", "count/op"},
	{"mc.parallel.steals", "count/op"},
	{"omega.lazy.states_materialized", "count/op"},
	{"omega.lazy.early_exit_ratio", "ratio"},
	{"omega.parallel.waves", "count/op"},
	{"omega.parallel.shards", "count/op"},
	{"omega.parallel.steals", "count/op"},
	{"plan.path.safety", "count/op"},
	{"plan.path.guarantee", "count/op"},
	{"plan.path.obligation", "count/op"},
	{"plan.path.recurrence", "count/op"},
	{"plan.path.persistence", "count/op"},
	{"plan.path.streett", "count/op"},
	{"plan.fallback_ratio", "ratio"},
	{"engine.cache.hit_ratio", "ratio"},
	{"engine.cache.evictions", "count/op"},
	{"store.hit_ratio", "ratio"},
	{"store.writes", "count/op"},
	{"store.dropped_writes", "count/op"},
	{"busy_share.ltl.parse", "ratio"},
	{"busy_share.engine.compile", "ratio"},
	{"busy_share.engine.classify", "ratio"},
	{"busy_share.engine.plan", "ratio"},
	{"busy_share.ts.build", "ratio"},
	{"busy_share.engine.verify", "ratio"},
	{"busy_share.engine.contains", "ratio"},
	{"busy_share.temporald.server", "ratio"},
	{"busy_share.temporald.transport", "ratio"},
	{"attribution_coverage", "ratio"},
	{"tracing_overhead", "ratio"},
	{"traced_ops_per_s", "1/s"},
	{"untraced_ops_per_s", "1/s"},
}

// print writes the report line and then the result line.
func (r *report) print(w *os.File) error {
	metrics := map[string]metric{}
	if r.opts.trace {
		vals := r.layerValues()
		for _, m := range perLayer {
			metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
		}
	} else {
		vals := r.endToEndValues()
		for _, m := range endToEnd {
			metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
		}
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"report": r.summary()}); err != nil {
		return err
	}
	return enc.Encode(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, metrics})
}
