package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestSnapshotRecordsHost converts a fixture of go test -bench output and
// checks the host facts and skipped gates the snapshot records beside the
// averaged benchmark figures.
func TestSnapshotRecordsHost(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	err := run([]string{"-pr", "fixture", "-i", filepath.Join("testdata", "bench.txt"), "-o", out,
		"-skip-gate", "warm-restart: no store fixture",
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
	if gates := []string{"warm-restart: no store fixture", "obs overhead: quick mode"}; !reflect.DeepEqual(snap.SkippedGates, gates) {
		t.Errorf("skipped gates = %q, want %q", snap.SkippedGates, gates)
	}
	if snap.PR != "fixture" || len(snap.Benchmarks) != 3 {
		t.Fatalf("pr %q, %d benchmarks; want fixture, 3", snap.PR, len(snap.Benchmarks))
	}
	if b := snap.Benchmarks[2]; b.Name != "BenchmarkScenarioBuild/ring8" || b.AllocsPerOp != 570 {
		t.Errorf("averaged entry = %+v, want BenchmarkScenarioBuild/ring8 at 570 allocs/op", b)
	}
}

// TestCompareLikeForLike gates the fixture against a previous snapshot
// whose ScenarioBuild/ring8 ran 4.5x faster. ns/op is compared only when
// the previous snapshot was taken on a matching host; otherwise the
// comparison is skipped and the skip recorded, while allocs/op is
// compared against any snapshot.
func TestCompareLikeForLike(t *testing.T) {
	same := Host{NumCPU: 3, GOMAXPROCS: 3, GoVersion: runtime.Version(), CPU: "Intel(R) Xeon(R) Processor"}
	otherProcs := same
	otherProcs.GOMAXPROCS = 8
	for _, tc := range []struct {
		name    string
		host    *Host
		allocs  float64 // previous allocs/op of ScenarioBuild/ring8 (the fixture has 570)
		wantErr string
		skip    string
	}{
		{"same host", &same, 570, "1 gate violation(s)", ""},
		{"other GOMAXPROCS", &otherProcs, 570, "", "GOMAXPROCS 8 vs 3"},
		{"no host", nil, 100, "1 gate violation(s)", "records no host"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			prev, _ := json.Marshal(Snapshot{PR: "prev", Host: tc.host, Benchmarks: []Benchmark{
				{Name: "BenchmarkScenarioBuild/ring8", NsPerOp: 1e6, AllocsPerOp: tc.allocs},
			}})
			prevPath := filepath.Join(dir, "prev.json")
			if err := os.WriteFile(prevPath, prev, 0o644); err != nil {
				t.Fatal(err)
			}
			out := filepath.Join(dir, "bench.json")
			err := run([]string{"-pr", "cur", "-i", filepath.Join("testdata", "bench.txt"), "-o", out, "-compare", prevPath})
			if got := fmt.Sprint(err); (tc.wantErr == "" && err != nil) || (tc.wantErr != "" && got != tc.wantErr) {
				t.Fatalf("run = %v, want %q", err, tc.wantErr)
			}
			data, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			var snap Snapshot
			if err := json.Unmarshal(data, &snap); err != nil {
				t.Fatal(err)
			}
			switch {
			case tc.skip == "" && len(snap.SkippedGates) != 0:
				t.Fatalf("skipped gates = %q, want none", snap.SkippedGates)
			case tc.skip != "" && (len(snap.SkippedGates) != 1 || !strings.HasPrefix(snap.SkippedGates[0], "ns/op regression vs "+prevPath+": ") || !strings.Contains(snap.SkippedGates[0], tc.skip)):
				t.Fatalf("skipped gates = %q, want one ns/op skip naming %q", snap.SkippedGates, tc.skip)
			}
		})
	}
}
