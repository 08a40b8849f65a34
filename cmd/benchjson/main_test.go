package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// TestSnapshotRecordsHost converts a fixture of go test -bench output and
// checks the host facts and skipped gates the snapshot records beside the
// averaged benchmark figures.
func TestSnapshotRecordsHost(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	err := run([]string{"-pr", "fixture", "-i", filepath.Join("testdata", "bench.txt"), "-o", out,
		"-skip-gate", "parallel speedup: only 2 CPU(s); needs >= 4",
		"-skip-gate", "obs overhead: quick mode"})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	want := Host{NumCPU: runtime.NumCPU(), GOMAXPROCS: 3, GoVersion: runtime.Version(), CPU: "Intel(R) Xeon(R) Processor"}
	if snap.Host == nil || *snap.Host != want {
		t.Errorf("host = %+v, want %+v", snap.Host, want)
	}
	if gates := []string{"parallel speedup: only 2 CPU(s); needs >= 4", "obs overhead: quick mode"}; !reflect.DeepEqual(snap.SkippedGates, gates) {
		t.Errorf("skipped gates = %q, want %q", snap.SkippedGates, gates)
	}
	if snap.PR != "fixture" || len(snap.Benchmarks) != 3 {
		t.Fatalf("pr %q, %d benchmarks; want fixture, 3", snap.PR, len(snap.Benchmarks))
	}
	if b := snap.Benchmarks[2]; b.Name != "BenchmarkScenarioBuild/ring8" || b.AllocsPerOp != 570 {
		t.Errorf("averaged entry = %+v, want BenchmarkScenarioBuild/ring8 at 570 allocs/op", b)
	}
}
