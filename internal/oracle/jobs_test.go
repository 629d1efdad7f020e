package oracle

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"fetch"
	"fetch/internal/core"
	"fetch/internal/elfx"
	"fetch/internal/synth"
)

// TestJobsMatrixDeterminism is the determinism matrix: every
// adversarial profile × the full strategy matrix × jobs ∈ {1,2,4,8}
// must produce reports DeepEqual to the sequential run (references in
// exact order), with no goroutine leaked by the worker pools. Run
// under -race in CI, this is the widest net over the parallel
// candidate validation, per-FDE precompute, and data-index stages.
func TestJobsMatrixDeterminism(t *testing.T) {
	before := runtime.NumGoroutine()
	jobsMatrix := []int{1, 2, 4, 8}
	for _, prof := range synth.ProfileNames() {
		cfg, err := synth.AdversarialProfile(prof, 31000)
		if err != nil {
			t.Fatal(err)
		}
		img, _, err := synth.Generate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", prof, err)
		}
		stripped := img.Strip()
		for _, strat := range core.AllStrategies() {
			var ref *core.Report
			for _, jobs := range jobsMatrix {
				rep, err := core.AnalyzeConfig(stripped, core.Config{Strategy: strat, Jobs: jobs})
				if err != nil {
					t.Fatalf("%s jobs=%d: %v", prof, jobs, err)
				}
				if jobs == 1 {
					ref = rep
					continue
				}
				name := fmt.Sprintf("%s [rec=%v xref=%v tail=%v] jobs=%d",
					prof, strat.Recursive, strat.Xref, strat.TailCall, jobs)
				if vs := DiffReports(name, strat, rep, ref); len(vs) > 0 {
					for _, v := range vs {
						t.Error(v)
					}
				}
				if !reflect.DeepEqual(rep.Funcs, ref.Funcs) {
					t.Errorf("%s: function sets differ", name)
				}
				if rep.Res != nil && ref.Res != nil &&
					!reflect.DeepEqual(rep.Res.Refs, ref.Res.Refs) {
					t.Errorf("%s: references differ", name)
				}
			}
		}
	}
	// The pools join before returning; give the runtime a moment to
	// retire worker goroutines, then require the count back near the
	// baseline.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after the matrix", before, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShardedBatchIntraJobs covers the public batch surface: WithJobs
// in the batch options must not change any result, including under the codec encoding the
// cache and service persist.
func TestShardedBatchIntraJobs(t *testing.T) {
	cfg, err := synth.AdversarialProfile("jump-tables", 8700)
	if err != nil {
		t.Fatal(err)
	}
	img, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := elfx.WriteELF(img.Strip())
	if err != nil {
		t.Fatal(err)
	}
	inputs := []fetch.Input{{Name: "a", Data: raw}, {Name: "b", Data: raw}}
	seq := fetch.AnalyzeBatch(inputs, fetch.BatchOptions{Jobs: 1})
	par := fetch.AnalyzeBatch(inputs, fetch.BatchOptions{Jobs: 2, Options: []fetch.Option{fetch.WithJobs(4)}})
	for i := range seq {
		if seq[i].Err != nil || par[i].Err != nil {
			t.Fatalf("item %d: errs %v / %v", i, seq[i].Err, par[i].Err)
		}
		a, err := fetch.EncodeResult(fetch.StripSchedule(seq[i].Result))
		if err != nil {
			t.Fatal(err)
		}
		b, err := fetch.EncodeResult(fetch.StripSchedule(par[i].Result))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("item %d: WithJobs(4) changed the encoded result", i)
		}
	}
}
