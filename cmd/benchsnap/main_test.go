package main

import (
	"encoding/json"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: fetch
cpu: AMD EPYC 7B13
BenchmarkCacheCold-8      	       1	331224601 ns/op	  0.88 MB/s
BenchmarkCacheHit-8       	    3966	    293924 ns/op	993.77 MB/s
BenchmarkDeltaReanalysis-8	       1	  20714804 ns/op	  12.41 ×vs-cold	 14.11 MB/s
BenchmarkJobsAnalyze/jobs=4-8	       1	151000000 ns/op	      1213 funcs
PASS
ok  	fetch	12.345s
`

func TestRunParsesBenchOutput(t *testing.T) {
	var out strings.Builder
	if err := run(strings.NewReader(sampleOutput), &out); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(out.String()), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Schema != "fetch-benchsnap-1" || snap.Goos != "linux" || snap.CPU != "AMD EPYC 7B13" {
		t.Fatalf("header: %+v", snap)
	}
	if len(snap.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks", len(snap.Benchmarks))
	}
	byName := make(map[string]Benchmark)
	for _, b := range snap.Benchmarks {
		byName[b.Name] = b
	}
	delta := byName["BenchmarkDeltaReanalysis"]
	if delta.NsPerOp != 20714804 || delta.Metrics["×vs-cold"] != 12.41 {
		t.Fatalf("delta entry: %+v", delta)
	}
	jobs := byName["BenchmarkJobsAnalyze/jobs=4"]
	if jobs.Procs != 8 || jobs.Metrics["funcs"] != 1213 {
		t.Fatalf("jobs entry: %+v", jobs)
	}
	// Output is sorted by name for clean diffs.
	for i := 1; i < len(snap.Benchmarks); i++ {
		if snap.Benchmarks[i-1].Name > snap.Benchmarks[i].Name {
			t.Fatal("benchmarks not sorted by name")
		}
	}
}

const multiPkgOutput = `goos: linux
goarch: amd64
pkg: fetch/internal/x64
cpu: AMD EPYC 7B13
BenchmarkDecodeThroughput 	     769	   1597393 ns/op	  41.04 MB/s
PASS
ok  	fetch/internal/x64	1.393s
pkg: fetch/internal/a64
BenchmarkDecodeThroughput 	     967	   1203367 ns/op	  54.50 MB/s
PASS
ok  	fetch/internal/a64	1.299s
`

// TestRunMultiPackage pins the cross-package disambiguation: two
// same-named benchmarks from different packages get package-qualified
// names and the single-package header field is dropped.
func TestRunMultiPackage(t *testing.T) {
	var out strings.Builder
	if err := run(strings.NewReader(multiPkgOutput), &out); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(out.String()), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Pkg != "" {
		t.Errorf("Pkg = %q, want empty on a multi-package run", snap.Pkg)
	}
	if len(snap.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(snap.Benchmarks))
	}
	byName := make(map[string]Benchmark)
	for _, b := range snap.Benchmarks {
		byName[b.Name] = b
	}
	if byName["fetch/internal/x64.BenchmarkDecodeThroughput"].Metrics["MB/s"] != 41.04 {
		t.Errorf("x64 entry missing or wrong: %+v", snap.Benchmarks)
	}
	if byName["fetch/internal/a64.BenchmarkDecodeThroughput"].Metrics["MB/s"] != 54.50 {
		t.Errorf("a64 entry missing or wrong: %+v", snap.Benchmarks)
	}
}

func TestRunRejectsEmptyInput(t *testing.T) {
	var out strings.Builder
	if err := run(strings.NewReader("PASS\nok fetch 1s\n"), &out); err == nil {
		t.Fatal("no error for input without benchmark lines")
	}
}
