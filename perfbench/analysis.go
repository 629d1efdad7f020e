package main

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"

	"fetch"
	"fetch/internal/callconv"
	"fetch/internal/metrics"
)

// setupReps is how often a run repeats its set-up; setup_s is the
// median, so one slow repetition does not move it.
const setupReps = 5

// hitsPerCold is how many cache hits follow each cold analysis.
const hitsPerCold = 50

func runLibc(e *env) (*outcome, error) {
	pins, err := loadPins()
	if err != nil {
		return nil, err
	}
	return analysisLane(e, pins.Floors["libc-fetch"], func(e *env) ([]*binary, error) { return libcInputs(e, pins) })
}

func runGobin(e *env) (*outcome, error) {
	pins, err := loadPins()
	if err != nil {
		return nil, err
	}
	return analysisLane(e, pins.Floors["gobin-xref"], func(e *env) ([]*binary, error) { return gobinInputs(e, pins) })
}

// analysisLane measures one closed-loop client analyzing real binaries
// with the fetch CLI's single-binary defaults (full FETCH,
// WithJobs(nproc)). Cold analyses run on an empty memory cache with the
// delta tier off, so the pipeline runs exactly as without a cache and
// the result is stored; hits then re-analyze the same bytes through
// that cache, as a library caller re-checking a binary would. A run
// whose precision or recall falls below fl counts as a failure.
func analysisLane(e *env, fl floor, inputs func(*env) ([]*binary, error)) (*outcome, error) {
	var err error
	var bins []*binary
	var setups []float64
	for i := 0; i < setupReps; i++ {
		// Provenance is printed once, by the first repetition.
		quiet := *e
		if i > 0 {
			quiet.log = io.Discard
		}
		t0 := time.Now()
		if bins, err = inputs(&quiet); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	runtime.GC()
	if e.trace {
		return traceLane(e, bins)
	}

	o := &outcome{metrics: map[string]float64{"setup_s": median(setups)}}
	caches := map[string]*fetch.Cache{}
	want := map[string][]uint64{}
	var tp, fp, fn int
	var coldMS, hitMS []float64

	// hit re-analyzes b through the cache its first cold analysis
	// filled.
	hit := func(b *binary) {
		o.attempted++
		t0 := time.Now()
		res, cached, err := b.analyze(caches[b.name], fetch.WithJobs(e.jobs))
		hitMS = append(hitMS, ms(time.Since(t0)))
		switch {
		case err != nil:
			o.fail(e, "%s: cache hit: %v", b.name, err)
		case !cached:
			o.fail(e, "%s: repeat analysis missed the cache", b.name)
		case !slices.Equal(res.FunctionStarts, want[b.name]):
			o.fail(e, "%s: cache hit differs from the cold analysis", b.name)
		}
	}

	start := time.Now()
	for pass := 0; ; pass++ {
		// Whole passes only, so every run measures the same mix of
		// binaries; a pass starts only if it is expected to fit.
		if pass > 0 && time.Since(start)*time.Duration(pass+1)/time.Duration(pass) > e.seconds {
			break
		}
		for _, b := range bins {
			c, err := fetch.NewCache(fetch.CacheConfig{DisableDelta: true})
			if err != nil {
				return nil, err
			}
			o.attempted++
			t0 := time.Now()
			res, cached, err := b.analyze(c, fetch.WithJobs(e.jobs))
			coldMS = append(coldMS, ms(time.Since(t0)))
			switch {
			case err != nil:
				o.fail(e, "%s: cold analysis: %v", b.name, err)
				continue
			case cached:
				o.fail(e, "%s: cold analysis was served from an empty cache", b.name)
				continue
			}
			if prev, ok := want[b.name]; ok {
				if !slices.Equal(prev, res.FunctionStarts) {
					o.fail(e, "%s: cold analysis %d differs from the first", b.name, pass)
				}
			} else {
				caches[b.name], want[b.name] = c, res.FunctionStarts
				ev := metrics.Evaluate(toSet(res.FunctionStarts), b.truth)
				tp, fp, fn = tp+ev.TP, fp+ev.FP, fn+ev.FN
			}
			// Hits follow every cold analysis, so that they sample the
			// whole run rather than its last seconds. The cold
			// analysis's garbage is collected first, so that collecting
			// it does not land on the hits.
			runtime.GC()
			for k := 0; k < hitsPerCold; k++ {
				hit(b)
			}
		}
	}
	rss, err := peakRSSMB(strconv.Itoa(os.Getpid()))
	if err != nil {
		return nil, err
	}
	// At least 200 hits per run.
	for i := 0; len(hitMS) < 200 && len(caches) > 0; i++ {
		if b := bins[i%len(bins)]; caches[b.name] != nil {
			hit(b)
		}
	}

	p := float64(tp) / float64(max(tp+fp, 1))
	r := float64(tp) / float64(max(tp+fn, 1))
	if p < fl.Precision || r < fl.Recall {
		o.fail(e, "precision %.6f / recall %.6f below the floors %.6f / %.6f", p, r, fl.Precision, fl.Recall)
	}
	fmt.Fprintf(e.log, "perfbench: %d cold analyses, %d hits, TP=%d FP=%d FN=%d\n", len(coldMS), len(hitMS), tp, fp, fn)
	o.metrics["cold_ms_p50"] = median(coldMS)
	o.metrics["hit_ms_p50"] = median(hitMS)
	o.metrics["peak_rss_mb"] = rss
	o.metrics["precision"] = p
	o.metrics["recall"] = r
	o.metrics["ok_share"] = 1 - float64(o.failed)/float64(o.attempted)
	return o, nil
}

func toSet(xs []uint64) map[uint64]bool {
	m := make(map[uint64]bool, len(xs))
	for _, x := range xs {
		m[x] = true
	}
	return m
}

// layerSums accumulates per-analysis layer measurements of a traced
// run; metrics are per-analysis means.
type layerSums struct {
	n       int
	v       map[string]float64
	self    map[string]time.Duration
	wall    time.Duration
	refWall time.Duration
}

func (s *layerSums) add(name string, v float64) { s.v[name] += v }

// traceLane is the traced run of an analysis lane. For each binary, in
// the drawn order and while time remains, it runs the untraced
// analysis (the reference function set and wall time), re-drives the
// pipeline layer by layer under spans, requires both to find the same
// starts, and times the codec, cache, decoder and calling-convention
// entry points on the result.
func traceLane(e *env, bins []*binary) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	tr := newTracer()
	s := &layerSums{v: map[string]float64{}, self: map[string]time.Duration{}}
	start := time.Now()
	for i, b := range bins {
		if i > 0 && time.Since(start)*time.Duration(i+1)/time.Duration(i) > e.seconds {
			break
		}
		if err := traceBinary(e, o, tr, s, b); err != nil {
			return nil, err
		}
	}
	if err := tr.write(e.spans); err != nil {
		return nil, err
	}
	s.finish(o)
	// No server, load generator or delta tier runs in an analysis lane.
	o.metrics["service.hit_ms_p95"] = 0
	o.metrics["service.queue_wait_ms_p95"] = 0
	o.metrics["service.peak_in_flight"] = 0
	o.metrics["service.rejected"] = 0
	o.metrics["loadgen.late_ms_p99"] = 0
	o.metrics["loadgen.offered_rps"] = 0
	o.metrics["loadgen.achieved_rps"] = 0
	o.metrics["cache.delta_ms"] = 0
	o.metrics["cache.delta_ratio"] = 0
	fmt.Fprintf(e.log, "perfbench: traced %d analyses\n", s.n)
	return o, nil
}

// traceBinary measures one binary for the traced run.
func traceBinary(e *env, o *outcome, tr *tracer, s *layerSums, b *binary) error {
	dir := filepath.Join(e.work, "cache", b.name)
	c, err := fetch.NewCache(fetch.CacheConfig{Dir: dir, DisableDelta: true})
	if err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	o.attempted++
	t0 := time.Now()
	ref, _, err := b.analyze(c, fetch.WithJobs(e.jobs))
	refWall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if err != nil {
		o.fail(e, "%s: analysis: %v", b.name, err)
		return nil
	}

	o.attempted++
	root := tr.begin("analysis")
	starts, lc, err := redrive(tr, b.load, e.jobs)
	wall := tr.end(root)
	if err != nil {
		o.fail(e, "%s: re-driven pipeline: %v", b.name, err)
		return nil
	}
	defer lc.img.Close()
	if !slices.Equal(starts, ref.FunctionStarts) {
		o.fail(e, "%s: re-driven pipeline found %d starts, fetch.Analyze %d", b.name, len(starts), len(ref.FunctionStarts))
	}
	s.n++
	s.wall += wall
	s.refWall += refWall
	self := tr.selfByLayer(root)
	for layer, d := range self {
		s.self[layer] += d
	}
	// The layers' self times must account for the traced wall time:
	// more than 5% outside every layer span means a layer went untimed.
	if glue := self["analysis"]; glue*20 > wall {
		o.fail(e, "%s: %v of the %v traced analysis lies outside every layer span", b.name, glue, wall)
	}
	s.add("core.alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
	for _, p := range ref.Stats.Passes {
		s.add("core.pass."+p.Name+"_ms", ms(p.Wall))
	}
	lc.addTo(s)

	// Codec and cache on the analysis result.
	t0 = time.Now()
	blob, err := fetch.EncodeResult(ref)
	s.add("codec.encode_us", float64(time.Since(t0).Nanoseconds())/1e3)
	if err != nil {
		return err
	}
	s.add("codec.bytes", float64(len(blob)))
	t0 = time.Now()
	_, err = fetch.DecodeResult(blob)
	s.add("codec.decode_us", float64(time.Since(t0).Nanoseconds())/1e3)
	if err != nil {
		return err
	}
	o.attempted += 2
	t0 = time.Now()
	if _, ok := c.Get(b.sum); !ok {
		o.fail(e, "%s: memory cache lookup missed", b.name)
	}
	s.add("cache.mem_hit_us", float64(time.Since(t0).Nanoseconds())/1e3)
	disk, err := fetch.NewCache(fetch.CacheConfig{Dir: dir, DisableDelta: true})
	if err != nil {
		return err
	}
	t0 = time.Now()
	if _, ok := disk.Get(b.sum); !ok {
		o.fail(e, "%s: disk cache lookup missed", b.name)
	}
	s.add("cache.disk_hit_us", float64(time.Since(t0).Nanoseconds())/1e3)
	st := c.Stats()
	s.add("cache.hit_ratio", float64(st.Hits)/float64(max(st.Hits+st.Misses, 1)))
	s.add("cache.disk_mb", float64(dirBytes(dir))/(1<<20))
	return nil
}

// addTo folds one re-driven analysis's counters into the sums, and
// times the decoder and the calling-convention check on its output.
func (lc *layerCounts) addTo(s *layerSums) {
	s.add("elfx.materialized_mb", float64(lc.materialized)/(1<<20))
	s.add("ehframe.fdes", float64(lc.fdes))
	s.add("disasm.insts_decoded", float64(lc.instsDecoded))
	s.add("disasm.reuse_ratio", float64(lc.instsReused)/float64(max(lc.instsDecoded+lc.instsReused, 1)))
	s.add("disasm.fixed_point_passes", float64(lc.fixedPointPasses))
	s.add("disasm.peak_aux_mb", float64(lc.peakAux)/(1<<20))
	s.add("xref.rounds", float64(lc.xrefRounds))
	s.add("xref.candidates", float64(lc.candidates))
	s.add("xref.accepted", float64(lc.accepted))
	s.add("xref.accept_ratio", float64(lc.accepted)/float64(max(lc.candidates, 1)))
	s.add("xref.probes", float64(lc.xrefProbes))
	s.add("tailcall.cfi_removed", float64(lc.cfiRemoved))
	s.add("tailcall.merged", float64(lc.merged))
	s.add("tailcall.skipped_incomplete", float64(lc.skipped))

	// The ISA decoder over every instruction the analysis kept.
	isa := lc.img.ISA()
	facts := lc.res.InstFacts()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	var decoded int
	for _, f := range facts {
		b, err := lc.img.Bytes(f.Addr, int(f.Len))
		if err != nil {
			continue
		}
		if _, err := isa.Decode(b, f.Addr); err == nil {
			decoded++
		}
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	s.add("x64.decode_ns_per_inst", float64(d.Nanoseconds())/float64(max(decoded, 1)))
	s.add("x64.allocs_per_inst", float64(m1.Mallocs-m0.Mallocs)/float64(max(decoded, 1)))

	// The §V-B calling-convention check at every FDE start.
	var rejected int
	t0 = time.Now()
	for _, f := range lc.sec.FDEs {
		if !callconv.Validate(lc.img, f.PCBegin) {
			rejected++
		}
	}
	d = time.Since(t0)
	s.add("callconv.validate_us", float64(d.Nanoseconds())/1e3/float64(max(len(lc.sec.FDEs), 1)))
	s.add("callconv.reject_share", float64(rejected)/float64(max(len(lc.sec.FDEs), 1)))
}

// finish turns the sums into per-analysis means and layer shares.
func (s *layerSums) finish(o *outcome) {
	n := float64(max(s.n, 1))
	for k, v := range s.v {
		o.metrics[k] = v / n
	}
	var covered time.Duration
	for layer, d := range s.self {
		if layer != "analysis" {
			covered += d
		}
	}
	o.metrics["elfx.load_ms"] = ms(s.self["elfx"]) / n
	o.metrics["ehframe.decode_ms"] = ms(s.self["ehframe"]) / n
	o.metrics["disasm.extend_ms"] = ms(s.self["disasm"]) / n
	o.metrics["xref.detect_ms"] = ms(s.self["xref"]) / n
	o.metrics["tailcall.run_ms"] = ms(s.self["tailcall"]) / n
	o.metrics["xref.probe_us"] = ms(s.self["xref"]) * 1e3 / max(o.metrics["xref.probes"]*n, 1)
	o.metrics["trace.analysis_ms"] = ms(s.wall) / n
	o.metrics["trace.overhead_ratio"] = float64(s.wall) / float64(max(s.refWall, 1))
	o.metrics["trace.self_coverage"] = float64(covered) / float64(max(s.wall, 1))
	for _, layer := range []string{"elfx", "ehframe", "disasm", "xref", "tailcall"} {
		o.metrics["share."+layer] = float64(s.self[layer]) / float64(max(s.wall, 1))
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}
