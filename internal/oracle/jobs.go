package oracle

import (
	"bytes"
	"fmt"
	"reflect"

	"fetch"
	"fetch/internal/core"
	"fetch/internal/elfx"
)

// jobsMatrix is the intra-binary worker counts the jobs checker sweeps
// against the sequential reference: an even split, an odd split
// (work partitions of unequal size), and an oversubscribed one (more
// workers than cores).
var jobsMatrix = []int{2, 3, 8}

// CheckJobsEqualsSequential asserts the contract of intra-binary
// parallelism: for every strategy and every worker count,
// core.AnalyzeConfig produces a Report whose analysis content is
// byte-identical to the sequential run — function sets, every
// correction list, the full disassembly state (references in exact
// per-target order), and the deterministic pipeline counters (xref
// iterations, convergence, truncation). At the public API level, the
// codec encodings of jobs=N and jobs=1 results must be byte-identical
// after StripSchedule removes the execution trace (wall times, decode
// traffic, the job count).
func CheckJobsEqualsSequential(shape string, img *elfx.Image, raw []byte) []Violation {
	var vs []Violation
	for _, strat := range core.AllStrategies() {
		seq, err := core.AnalyzeConfig(img, core.Config{Strategy: strat, Jobs: 1})
		if err != nil {
			vs = append(vs, Violation{shape, strat, "jobs-equivalence", "jobs=1: " + err.Error()})
			continue
		}
		for _, jobs := range jobsMatrix {
			par, err := core.AnalyzeConfig(img, core.Config{Strategy: strat, Jobs: jobs})
			if err != nil {
				vs = append(vs, Violation{shape, strat, "jobs-equivalence",
					fmt.Sprintf("jobs=%d: %v", jobs, err)})
				continue
			}
			for _, d := range DiffReports(shape, strat, par, seq) {
				d.Invariant = "jobs-equivalence"
				d.Detail = fmt.Sprintf("jobs=%d vs jobs=1: %s", jobs, d.Detail)
				vs = append(vs, d)
			}
			vs = append(vs, diffJobsExtras(shape, strat, jobs, par, seq)...)
		}
	}

	// Public-surface check: the serialized schema (the service's wire
	// format and the cache's stored form) must not differ either.
	seqRes, err := fetch.Analyze(raw, fetch.WithJobs(1))
	if err != nil {
		return append(vs, Violation{shape, core.FETCH, "jobs-codec", "jobs=1: " + err.Error()})
	}
	seqBlob, err := fetch.EncodeResult(fetch.StripSchedule(seqRes))
	if err != nil {
		return append(vs, Violation{shape, core.FETCH, "jobs-codec", "encode jobs=1: " + err.Error()})
	}
	for _, jobs := range jobsMatrix {
		parRes, err := fetch.Analyze(raw, fetch.WithJobs(jobs))
		if err != nil {
			vs = append(vs, Violation{shape, core.FETCH, "jobs-codec",
				fmt.Sprintf("jobs=%d: %v", jobs, err)})
			continue
		}
		parBlob, err := fetch.EncodeResult(fetch.StripSchedule(parRes))
		if err != nil {
			vs = append(vs, Violation{shape, core.FETCH, "jobs-codec",
				fmt.Sprintf("encode jobs=%d: %v", jobs, err)})
			continue
		}
		if !bytes.Equal(parBlob, seqBlob) {
			vs = append(vs, Violation{shape, core.FETCH, "jobs-codec",
				fmt.Sprintf("schema encoding differs between jobs=%d and jobs=1 after StripSchedule", jobs)})
		}
	}
	return vs
}

// diffJobsExtras covers the deterministic fields DiffReports leaves
// to the session-equivalence contract: references, harvested
// constants, and the jobs-invariant stats.
func diffJobsExtras(shape string, strat core.Strategy, jobs int, par, seq *core.Report) []Violation {
	var vs []Violation
	add := func(format string, args ...any) {
		vs = append(vs, Violation{shape, strat, "jobs-equivalence",
			fmt.Sprintf("jobs=%d vs jobs=1: %s", jobs, fmt.Sprintf(format, args...))})
	}
	if par.Res != nil && seq.Res != nil {
		if !reflect.DeepEqual(par.Res.Refs, seq.Res.Refs) {
			add("references differ")
		}
		if !reflect.DeepEqual(par.Res.Constants, seq.Res.Constants) {
			add("harvested constants differ")
		}
		if !reflect.DeepEqual(par.Res.TableBases, seq.Res.TableBases) {
			add("jump-table bases differ")
		}
	}
	ps, ss := par.Stats, seq.Stats
	if ps.XrefIterations != ss.XrefIterations || ps.XrefConverged != ss.XrefConverged ||
		ps.Truncated != ss.Truncated {
		add("xref trajectory differs: iters %d/%d converged %v/%v truncated %v/%v",
			ps.XrefIterations, ss.XrefIterations, ps.XrefConverged, ss.XrefConverged,
			ps.Truncated, ss.Truncated)
	}
	// FixedPointPasses is deliberately absent: probe walks count into
	// it, and parallel candidate validation probes a superset of what
	// the sequential accept loop consults — scheduling-dependent, like
	// Probes and Forks.
	if ps.Disasm.ColdStarts != ss.Disasm.ColdStarts ||
		ps.Disasm.Extends != ss.Disasm.Extends ||
		ps.Disasm.Retracts != ss.Disasm.Retracts {
		add("jobs-invariant session counters differ: cold %d/%d extends %d/%d retracts %d/%d",
			ps.Disasm.ColdStarts, ss.Disasm.ColdStarts,
			ps.Disasm.Extends, ss.Disasm.Extends,
			ps.Disasm.Retracts, ss.Disasm.Retracts)
	}
	if len(ps.Passes) != len(ss.Passes) {
		add("pass lists differ: %d vs %d", len(ps.Passes), len(ss.Passes))
	}
	return vs
}

// CheckConvergence asserts the xref fixed point genuinely converged:
// every adversarial shape must reach a Detect round that accepts
// nothing within the safety bound. A truncated analysis (the failure
// mode the historical 3-round cap hid) is a violation on any shape the
// sweep generates.
func CheckConvergence(shape string, strat core.Strategy, rep *core.Report) []Violation {
	var vs []Violation
	if !rep.Stats.XrefConverged {
		vs = append(vs, Violation{shape, strat, "xref-convergence",
			fmt.Sprintf("pointer detection did not converge (%d iterations, truncated=%v)",
				rep.Stats.XrefIterations, rep.Stats.Truncated)})
	}
	if rep.Stats.Truncated != !rep.Stats.XrefConverged {
		vs = append(vs, Violation{shape, strat, "xref-convergence",
			fmt.Sprintf("Truncated=%v inconsistent with XrefConverged=%v",
				rep.Stats.Truncated, rep.Stats.XrefConverged)})
	}
	return vs
}
