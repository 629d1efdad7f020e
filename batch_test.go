package fetch

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// batchSamples generates n distinct in-memory sample binaries.
func batchSamples(t *testing.T, n int) []Input {
	t.Helper()
	inputs := make([]Input, n)
	for i := range inputs {
		raw, _, err := GenerateSample(SampleConfig{Seed: int64(7100 + i), NumFuncs: 40, Stripped: true})
		if err != nil {
			t.Fatalf("GenerateSample %d: %v", i, err)
		}
		inputs[i] = Input{Name: string(rune('a' + i)), Data: raw}
	}
	return inputs
}

func TestAnalyzeBatch(t *testing.T) {
	valid := batchSamples(t, 4)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	tests := []struct {
		name    string
		inputs  []Input
		opts    BatchOptions
		wantErr map[int]bool // index -> item must fail
	}{
		{
			name:   "empty input",
			inputs: nil,
			opts:   BatchOptions{Jobs: 4},
		},
		{
			name:   "all valid",
			inputs: valid,
			opts:   BatchOptions{Jobs: 2},
		},
		{
			name: "corrupt ELF among valid ones",
			inputs: []Input{
				valid[0],
				{Name: "corrupt", Data: []byte("\x7fELF not really")},
				valid[1],
			},
			opts:    BatchOptions{Jobs: 3},
			wantErr: map[int]bool{1: true},
		},
		{
			name: "missing file among valid ones",
			inputs: []Input{
				valid[0],
				{Path: "/nonexistent/binary"},
				valid[1],
			},
			opts:    BatchOptions{Jobs: 2},
			wantErr: map[int]bool{1: true},
		},
		{
			name:    "context cancellation stops early",
			inputs:  valid,
			opts:    BatchOptions{Jobs: 2, Context: cancelled},
			wantErr: map[int]bool{0: true, 1: true, 2: true, 3: true},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			results := AnalyzeBatch(tc.inputs, tc.opts)
			if len(results) != len(tc.inputs) {
				t.Fatalf("got %d results for %d inputs", len(results), len(tc.inputs))
			}
			for i, br := range results {
				wantName := tc.inputs[i].Name
				if wantName == "" {
					wantName = tc.inputs[i].Path
				}
				if br.Name != wantName {
					t.Errorf("result %d name %q, want %q (order broken?)", i, br.Name, wantName)
				}
				if tc.wantErr[i] {
					if br.Err == nil {
						t.Errorf("result %d (%s): expected error", i, br.Name)
					}
					continue
				}
				if br.Err != nil {
					t.Errorf("result %d (%s): unexpected error %v", i, br.Name, br.Err)
					continue
				}
				if br.Result == nil || len(br.Result.FunctionStarts) == 0 {
					t.Errorf("result %d (%s): empty analysis", i, br.Name)
				}
			}
		})
	}
}

// TestAnalyzeBatchCancelledContextError pins the per-item error to the
// context cause.
func TestAnalyzeBatchCancelledContextError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, br := range AnalyzeBatch(batchSamples(t, 3), BatchOptions{Context: ctx, Jobs: 2}) {
		if !errors.Is(br.Err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", br.Name, br.Err)
		}
	}
}

// zeroWall clears the pass wall-clock times — the only legitimately
// non-deterministic part of a Result — so DeepEqual covers everything
// else, including the session's decode/reuse counters.
func zeroWall(rs ...*Result) {
	for _, r := range rs {
		if r == nil {
			continue
		}
		for i := range r.Stats.Passes {
			r.Stats.Passes[i].Wall = 0
		}
	}
}

// TestAnalyzeBatchDeterminism proves jobs=1 and jobs=NumCPU produce
// identical results, and that both match the sequential Analyze path.
func TestAnalyzeBatchDeterminism(t *testing.T) {
	inputs := batchSamples(t, 6)
	seq := AnalyzeBatch(inputs, BatchOptions{Jobs: 1})
	par := AnalyzeBatch(inputs, BatchOptions{Jobs: runtime.NumCPU() * 2})
	for i := range seq {
		zeroWall(seq[i].Result, par[i].Result)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("jobs=1 and parallel batch results differ")
	}
	for i, in := range inputs {
		direct, err := Analyze(in.Data)
		if err != nil {
			t.Fatalf("Analyze %d: %v", i, err)
		}
		zeroWall(direct)
		if !reflect.DeepEqual(seq[i].Result, direct) {
			t.Errorf("batch result %d differs from direct Analyze", i)
		}
	}
}

// TestAnalyzeBatchOptionsApply confirms per-batch Options reach every
// item (FDEOnly must suppress pointer- and tail-call-derived starts).
func TestAnalyzeBatchOptionsApply(t *testing.T) {
	inputs := batchSamples(t, 2)
	for _, br := range AnalyzeBatch(inputs, BatchOptions{Jobs: 2, Options: []Option{FDEOnly()}}) {
		if br.Err != nil {
			t.Fatalf("%s: %v", br.Name, br.Err)
		}
		if n := len(br.Result.NewFromPointers); n != 0 {
			t.Errorf("%s: FDEOnly batch still found %d pointer starts", br.Name, n)
		}
		if n := len(br.Result.NewFromTailCalls); n != 0 {
			t.Errorf("%s: FDEOnly batch still found %d tail-call starts", br.Name, n)
		}
	}
}

// TestAnalyzeBatchFromDisk exercises the Path side of Input.
func TestAnalyzeBatchFromDisk(t *testing.T) {
	raw, _, err := GenerateSample(SampleConfig{Seed: 7200, NumFuncs: 30, Stripped: true})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sample.elf")
	if err := os.WriteFile(path, raw, 0o755); err != nil {
		t.Fatal(err)
	}
	results := AnalyzeBatch([]Input{{Path: path}}, BatchOptions{})
	if results[0].Err != nil {
		t.Fatalf("%v", results[0].Err)
	}
	if results[0].Name != path {
		t.Errorf("name defaulted to %q, want path %q", results[0].Name, path)
	}
	direct, err := AnalyzeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	zeroWall(results[0].Result, direct)
	if !reflect.DeepEqual(results[0].Result, direct) {
		t.Error("batch-from-disk result differs from AnalyzeFile")
	}
}

// TestAnalyzeBatchDedupsIdenticalData proves byte-identical inputs are
// analyzed once: every duplicate's BatchResult shares the single
// group's Result.
func TestAnalyzeBatchDedupsIdenticalData(t *testing.T) {
	distinct := batchSamples(t, 2)
	inputs := []Input{
		{Name: "a0", Data: distinct[0].Data},
		{Name: "b0", Data: distinct[1].Data},
		{Name: "a1", Data: append([]byte(nil), distinct[0].Data...)}, // equal bytes, distinct backing array
		{Name: "a2", Data: distinct[0].Data},
		{Name: "b1", Data: distinct[1].Data},
	}
	results := AnalyzeBatch(inputs, BatchOptions{Jobs: 4})
	for i, br := range results {
		if br.Err != nil {
			t.Fatalf("item %d: %v", i, br.Err)
		}
	}
	if results[0].Result != results[2].Result || results[0].Result != results[3].Result {
		t.Error("duplicates of binary a did not share one analysis")
	}
	if results[1].Result != results[4].Result {
		t.Error("duplicates of binary b did not share one analysis")
	}
	if results[0].Result == results[1].Result {
		t.Error("distinct binaries aliased")
	}
}

// TestAnalyzeBatchDedupCountsOneAnalysisPerDistinctBinary uses cache
// put counters to verify the pool saw each distinct binary exactly
// once.
func TestAnalyzeBatchDedupCountsOneAnalysisPerDistinctBinary(t *testing.T) {
	cache, err := NewCache(CacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	distinct := batchSamples(t, 3)
	var inputs []Input
	for rep := 0; rep < 4; rep++ {
		inputs = append(inputs, distinct...)
	}
	results := AnalyzeBatch(inputs, BatchOptions{Jobs: 4, Options: []Option{WithCache(cache)}})
	for i, br := range results {
		if br.Err != nil || br.Result == nil {
			t.Fatalf("item %d: %v", i, br.Err)
		}
	}
	st := cache.Stats()
	if hits, misses, puts := resultTier(st); puts != 3 || misses != 3 {
		t.Fatalf("expected exactly one analysis per distinct binary, counters: %+v", st)
	} else if hits != 0 {
		t.Fatalf("first batch should not hit (dedup happens before the cache): %+v", st)
	}

	// A second batch over the same corpus is served entirely from the
	// cache: one lookup per distinct binary, zero new analyses.
	AnalyzeBatch(inputs, BatchOptions{Jobs: 4, Options: []Option{WithCache(cache)}})
	st = cache.Stats()
	if hits, misses, puts := resultTier(st); puts != 3 || hits != 3 || misses != 3 {
		t.Fatalf("second batch should be one cache hit per distinct binary: %+v", st)
	}
}

// TestAnalyzeBatchDedupSamePath dedups repeated Path inputs and fans
// shared failures out to every duplicate.
func TestAnalyzeBatchDedupSamePath(t *testing.T) {
	raw, _, err := GenerateSample(SampleConfig{Seed: 7300, NumFuncs: 30, Stripped: true})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dup.elf")
	if err := os.WriteFile(path, raw, 0o755); err != nil {
		t.Fatal(err)
	}
	results := AnalyzeBatch([]Input{
		{Name: "x", Path: path},
		{Name: "y", Path: path},
		{Name: "gone1", Path: "/nonexistent/binary"},
		{Name: "gone2", Path: "/nonexistent/binary"},
	}, BatchOptions{Jobs: 4})
	if results[0].Err != nil || results[1].Err != nil {
		t.Fatalf("valid path errs: %v %v", results[0].Err, results[1].Err)
	}
	if results[0].Result != results[1].Result {
		t.Error("same-path duplicates did not share one analysis")
	}
	if results[2].Err == nil || results[3].Err == nil {
		t.Fatal("missing path did not fail")
	}
	if results[2].Err != results[3].Err {
		t.Error("duplicate failures did not share one error")
	}
}
