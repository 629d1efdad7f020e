package fetch

import (
	"os"
	"path/filepath"
	"testing"
)

// realbinCeilings holds the work counters of fetch.Analyze(data,
// WithJobs(1)) on each committed testdata/realbin binary, measured with
// go1.24.0 on linux/amd64 (identical with -race, across repeated runs
// and at WithJobs(2)). The committed bytes are fixed, so the counters
// are a pure function of the pipeline: a change that moves one updates
// the ceiling and says why.
var realbinCeilings = map[string]struct {
	instsDecoded int64 // Stats.InstsDecoded
	probes       int   // Stats.Probes
}{
	"hello-gcc-o2.bin":       {139, 4},
	"synth-clang-cpp-o3.bin": {1518, 1},
	"synth-gcc-c-o2.bin":     {1366, 0},
	"synth-gcc-c-os.bin":     {1410, 0},
}

// TestRealbinCounterCeilings fails when analyzing a committed binary
// decodes more instructions or runs more candidate probes than its
// recorded ceiling, e.g. a second probe per candidate.
func TestRealbinCounterCeilings(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "realbin", "*.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(realbinCeilings) {
		t.Fatalf("found %d realbin binaries, ceilings cover %d", len(paths), len(realbinCeilings))
	}
	for _, p := range paths {
		name := filepath.Base(p)
		ceil, ok := realbinCeilings[name]
		if !ok {
			t.Errorf("%s: no ceiling recorded", name)
			continue
		}
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Analyze(data, WithJobs(1))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := res.Stats.InstsDecoded; got > ceil.instsDecoded {
			t.Errorf("%s: %d instructions decoded, ceiling %d", name, got, ceil.instsDecoded)
		}
		if got := res.Stats.Probes; got > ceil.probes {
			t.Errorf("%s: %d probes, ceiling %d", name, got, ceil.probes)
		}
	}
}
