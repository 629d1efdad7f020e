package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the smoke tests check the
// printed metrics against.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	return &b
}

// TestBenchmarkFileMatches checks that BENCHMARK.json names exactly the
// workloads and metrics this program measures, with the same units.
func TestBenchmarkFileMatches(t *testing.T) {
	b := readBenchmarkFile(t)
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	check := func(kind string, listed []struct{ Name, Unit string }, units map[string]string) {
		if len(listed) != len(units) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark measures %d", kind, len(listed), len(units))
		}
		for _, m := range listed {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: BENCHMARK.json metric %s [%s], measured unit %q", kind, m.Name, m.Unit, u)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// buildFetchd builds the server the mix workloads start.
func buildFetchd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "fetchd")
	out, err := exec.Command("go", "build", "-o", bin, "fetch/cmd/fetchd").CombinedOutput()
	if err != nil {
		t.Fatalf("building fetchd: %v\n%s", err, out)
	}
	return bin
}

// runSmoke runs one workload through the command line and returns its
// result line.
func runSmoke(t *testing.T, fetchd, workload, seconds, trace string) *result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--seed", "3", "--seconds", seconds, "--trace", trace,
		"--root", "..", "--fetchd", fetchd, "--work", filepath.Join(t.TempDir(), "work")}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s exited %d:\n%s%s", workload, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s", workload, err, stdout.String())
	}
	return &res
}

// checkMetrics requires every listed metric with its unit, and nothing
// else.
func checkMetrics(t *testing.T, workload string, res *result, units map[string]string) {
	t.Helper()
	if len(res.Metrics) != len(units) {
		t.Errorf("%s printed %d metrics, want %d", workload, len(res.Metrics), len(units))
	}
	for name, unit := range units {
		if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
			t.Errorf("%s: metric %s = %+v, want unit %s", workload, name, m, unit)
		}
	}
}

// TestSmoke runs the smoke workloads, untraced and traced, on the
// committed real binaries and a 200-function synthetic mix.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts fetchd and measures for several seconds")
	}
	fetchd := buildFetchd(t)
	for _, tc := range []struct{ workload, seconds string }{
		{"smoke-realbin", "1"},
		{"smoke-mix", "13"},
	} {
		for trace, units := range map[string]map[string]string{"0": endToEnd, "1": perLayer} {
			res := runSmoke(t, fetchd, tc.workload, tc.seconds, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", tc.workload, trace, res.Correct, res.Attempted, res.Failed)
			}
			checkMetrics(t, tc.workload, res, units)
			if trace == "0" && res.Metrics["ok_share"].Value != 1 {
				t.Errorf("%s: ok_share = %v, want 1", tc.workload, res.Metrics["ok_share"].Value)
			}
		}
	}
}

// TestWrongAnswersFail corrupts expected answers and requires the
// failures to show in the counts and in ok_share.
func TestWrongAnswersFail(t *testing.T) {
	if testing.Short() {
		t.Skip("starts fetchd and measures for several seconds")
	}
	e := &env{root: "..", fetchd: buildFetchd(t), work: t.TempDir(), seed: 5,
		seconds: 13e9, jobs: 2, log: &bytes.Buffer{}}

	o, err := fetchdMixed(e, smallFuncs, smallFuncs, func(m *mix) {
		m.bases[0].want = m.bases[0].want[1:]
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.failed == 0 || o.metrics["ok_share"] >= 1 {
		t.Errorf("mix with a corrupted expected answer: failed=%d ok_share=%v", o.failed, o.metrics["ok_share"])
	}

	e.seconds = 1e9
	o, err = analysisLane(e, floor{Precision: 1.01}, smokeInputs)
	if err != nil {
		t.Fatal(err)
	}
	if o.failed == 0 || o.metrics["ok_share"] >= 1 {
		t.Errorf("analysis lane with an unreachable precision floor: failed=%d ok_share=%v", o.failed, o.metrics["ok_share"])
	}
}
