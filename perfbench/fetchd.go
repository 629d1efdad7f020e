package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"fetch"
	"fetch/internal/elfx"
	"fetch/internal/groundtruth"
	"fetch/internal/metrics"
	"fetch/internal/pool"
	"fetch/internal/synth"
)

// The fetchd-mixed traffic mix. At this rate the write connection is
// busy about a third of the time on a 2-CPU host, so the server is
// loaded but its queue stays short.
const (
	mixRate = 20.0 // requests per second
	// One request in five is a write, so 80% are hits: re-uploads of
	// builds the server has answered. Deltas, next builds of a base
	// with 1% of functions changed, are 15% of all requests; the other
	// writes (5%) are builds the server has never seen (colds).
	writeEvery             = 5
	deltaShare             = 0.15
	smallFuncs, largeFuncs = 200, 1000
	smallBases, largeBases = 2, 6
	mixSetupReps           = 3
	// mixCacheEntries sizes fetchd's memory cache for the delta tier's
	// per-function entries, so no hit or delta of a run is evicted.
	mixCacheEntries = 1 << 16
)

// build is one synthetic binary of the mix with its expected answer.
type build struct {
	name  string
	raw   []byte
	truth *groundtruth.Truth
	// want is a direct fetch.Analyze of raw, computed in set-up.
	want []uint64
}

// request is one scheduled upload.
type request struct {
	class string // "hit", "delta" or "cold"
	b     *build
	due   time.Duration
}

// mix is a run's generated traffic.
type mix struct {
	bases []*build
	reqs  []request
}

// genBuild synthesizes one stripped x64 binary.
func genBuild(name string, seed int64, funcs, perturbK int, perturbSeed int64) (*build, error) {
	cfg := synth.DefaultConfig(name, seed, synth.O2, synth.GCC, synth.LangC)
	cfg.NumFuncs = funcs
	cfg.PerturbK = perturbK
	cfg.PerturbSeed = perturbSeed
	img, truth, err := synth.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	raw, err := elfx.WriteELF(img.Strip())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return &build{name: name, raw: raw, truth: truth}, nil
}

// genMix draws the run's schedule from the seed: classes in the mix's
// shares, hits cycling through the bases, each delta a new next build
// of a large base, each cold a new program.
func genMix(seed int64, seconds time.Duration, small, large, jobs int) (*mix, error) {
	rng := rand.New(rand.NewSource(seed))
	progSeed := func() int64 { return rng.Int63n(1 << 40) }
	m := &mix{}
	type spec struct {
		name        string
		seed        int64
		funcs, k    int
		perturbSeed int64
	}
	var specs []spec
	for i := 0; i < smallBases+largeBases; i++ {
		n := large
		if i < smallBases {
			n = small
		}
		specs = append(specs, spec{name: fmt.Sprintf("base%d", i), seed: progSeed(), funcs: n})
	}
	// A constant-rate schedule in which every fifth request is a write
	// (a delta or a cold build, in a seeded order with exact counts):
	// writes arrive evenly spaced, so one waits for another only when
	// the previous write outlasts the spacing.
	nreq := int(mixRate * seconds.Seconds())
	nwrite := nreq / writeEvery
	ndelta := int(float64(nreq)*deltaShare + 0.5)
	writeOrder := rng.Perm(nwrite)
	classes := make([]string, nreq)
	for i := range classes {
		switch {
		case i%writeEvery != writeEvery-1:
			classes[i] = "hit"
		case writeOrder[i/writeEvery] < ndelta:
			classes[i] = "delta"
		default:
			classes[i] = "cold"
		}
	}
	for i, c := range classes {
		switch c {
		case "delta":
			b := specs[smallBases+i%largeBases]
			specs = append(specs, spec{name: fmt.Sprintf("delta%d", i), seed: b.seed, funcs: b.funcs,
				k: max(b.funcs/100, 1), perturbSeed: progSeed()})
		case "cold":
			specs = append(specs, spec{name: fmt.Sprintf("cold%d", i), seed: progSeed(), funcs: large})
		}
	}
	builds, err := pool.Values(pool.Map(context.Background(), jobs, specs, func(_ context.Context, _ int, s spec) (*build, error) {
		return genBuild(s.name, s.seed, s.funcs, s.k, s.perturbSeed)
	}))
	if err != nil {
		return nil, err
	}
	m.bases = builds[:smallBases+largeBases]
	next := smallBases + largeBases
	hitOrder := rng.Perm(len(m.bases))
	hits := 0
	for i, c := range classes {
		r := request{class: c, due: time.Duration(float64(i) / mixRate * float64(time.Second))}
		if c == "hit" {
			r.b = m.bases[hitOrder[hits%len(hitOrder)]]
			hits++
		} else {
			r.b = builds[next]
			next++
		}
		m.reqs = append(m.reqs, r)
	}
	return m, nil
}

// digest is one fingerprint over every generated input, in order.
func (m *mix) digest() string {
	h := sha256.New()
	seen := map[*build]bool{}
	add := func(b *build) {
		if !seen[b] {
			seen[b] = true
			h.Write(b.raw)
		}
	}
	for _, b := range m.bases {
		add(b)
	}
	for _, r := range m.reqs {
		add(r.b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// server is a running fetchd child process.
type server struct {
	cmd    *exec.Cmd
	url    string
	client *http.Client
	logs   sync.WaitGroup
}

// startFetchd starts fetchd with its default flags, except for a memory
// cache large enough for the run and an upload spool under dir, and
// waits until it answers its health check. fetchd's disk cache stays
// off: on a shared virtual disk its per-function writes made cold
// latency swing between 0.24 and 0.6 s from one identical run to the
// next.
func startFetchd(e *env, dir string) (*server, error) {
	if err := os.MkdirAll(filepath.Join(dir, "spool"), 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command(e.fetchd, "-addr", "127.0.0.1:0",
		"-cache-entries", strconv.Itoa(mixCacheEntries), "-spool-dir", filepath.Join(dir, "spool"))
	// fetchd must not outlive the benchmark, even one that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting fetchd: %w", err)
	}
	s := &server{cmd: cmd}
	lines := bufio.NewReader(stderr)
	addr := make(chan string, 1)
	s.logs.Add(1)
	go func() {
		// Forward nothing: the access log is read so that fetchd never
		// blocks on a full pipe, until fetchd exits and closes it.
		defer s.logs.Done()
		for {
			line, err := lines.ReadString('\n')
			if rest, ok := strings.CutPrefix(line, "fetchd: listening on "); ok {
				a, _, _ := strings.Cut(rest, " ")
				addr <- a
			}
			if err != nil {
				close(addr)
				return
			}
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			s.stop()
			return nil, errors.New("fetchd exited before listening")
		}
		s.url = "http://" + a
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, errors.New("fetchd did not start listening within 30s")
	}
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: e.jobs, MaxIdleConnsPerHost: e.jobs, DisableCompression: true,
	}}
	resp, err := s.client.Get(s.url + "/v1/healthz")
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("fetchd health check: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.stop()
		return nil, fmt.Errorf("fetchd health check: %s", resp.Status)
	}
	return s, nil
}

// stop asks fetchd to drain and exit, kills it if it does not within
// 30 seconds, and waits until it has ended.
func (s *server) stop() error {
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		s.logs.Wait()
		done <- s.cmd.Wait()
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		return <-done
	}
}

// answer is one decoded /v1/analyze response.
type answer struct {
	status int
	cached bool
	res    *fetch.Result
}

// analyze uploads one binary and decodes the answer.
func (s *server) analyze(raw []byte) (*answer, error) {
	resp, err := s.client.Post(s.url+"/v1/analyze", "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	return decodeAnswer(resp.StatusCode, body)
}

func decodeAnswer(status int, body []byte) (*answer, error) {
	a := &answer{status: status}
	if status != http.StatusOK {
		return a, nil
	}
	var env struct {
		Cached bool            `json:"cached"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, fmt.Errorf("response envelope: %w", err)
	}
	res, err := fetch.DecodeResult(env.Result)
	if err != nil {
		return nil, err
	}
	a.cached, a.res = env.Cached, res
	return a, nil
}

// get returns the body of a GET that must answer 200.
func (s *server) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// setUpMix is one repetition of the fetchd-mixed set-up: generate and
// fingerprint the inputs, start fetchd, and warm its cache with the
// base builds (cold analyses that also record the traces the delta
// tier replays against).
func setUpMix(e *env, dir string, small, large int) (*mix, *server, error) {
	m, err := genMix(e.seed, e.seconds, small, large, e.jobs)
	if err != nil {
		return nil, nil, err
	}
	s, err := startFetchd(e, dir)
	if err != nil {
		return nil, nil, err
	}
	_, err = pool.Values(pool.Map(context.Background(), e.jobs, m.bases, func(_ context.Context, _ int, b *build) (*answer, error) {
		a, err := s.analyze(b.raw)
		if err == nil && a.status != http.StatusOK {
			err = fmt.Errorf("warming %s: HTTP %d", b.name, a.status)
		}
		return a, err
	}))
	if err != nil {
		s.stop()
		return nil, nil, err
	}
	return m, s, nil
}

// sample is one completed request of the open loop.
type sample struct {
	lat, late time.Duration
	done      time.Duration
	a         *answer
	err       error
}

func runFetchdMixed(e *env) (*outcome, error) {
	return fetchdMixed(e, smallFuncs, largeFuncs, nil)
}

// fetchdMixed measures fetchd under an open-loop traffic mix. corrupt,
// when set, edits the expected answers before the run; the self-test
// uses it to show that a wrong answer is counted as a failure.
func fetchdMixed(e *env, small, large int, corrupt func(*mix)) (*outcome, error) {
	var (
		m      *mix
		s      *server
		setups []float64
	)
	for i := 0; i < mixSetupReps; i++ {
		dir := filepath.Join(e.work, "fetchd"+strconv.Itoa(i))
		t0 := time.Now()
		mi, si, err := setUpMix(e, dir, small, large)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if m, s = mi, si; i < mixSetupReps-1 {
			if err := s.stop(); err != nil {
				return nil, fmt.Errorf("stopping fetchd: %w", err)
			}
		}
	}
	defer s.stop()
	fmt.Fprintf(e.log, "perfbench: set-up repetitions %.3v s\n", setups)
	fmt.Fprintf(e.log, "perfbench: inputs %d requests over %d bases, sha256=%s\n", len(m.reqs), len(m.bases), m.digest())

	// Expected answers: a direct fetch.Analyze of every distinct build.
	t0 := time.Now()
	var distinct []*build
	seen := map[*build]bool{}
	for _, b := range m.bases {
		seen[b] = true
		distinct = append(distinct, b)
	}
	for _, r := range m.reqs {
		if !seen[r.b] {
			seen[r.b] = true
			distinct = append(distinct, r.b)
		}
	}
	inputs := make([]fetch.Input, len(distinct))
	for i, b := range distinct {
		inputs[i] = fetch.Input{Name: b.name, Data: b.raw}
	}
	for i, br := range fetch.AnalyzeBatch(inputs, fetch.BatchOptions{Jobs: e.jobs}) {
		if br.Err != nil {
			return nil, fmt.Errorf("expected answer for %s: %w", br.Name, br.Err)
		}
		distinct[i].want = br.Result.FunctionStarts
	}
	if corrupt != nil {
		corrupt(m)
	}
	fmt.Fprintf(e.log, "perfbench: expected answers for %d builds in %.1fs\n", len(distinct), time.Since(t0).Seconds())

	classes := map[string]int{}
	for _, r := range m.reqs {
		classes[r.class]++
	}
	// A p95 needs at least ten samples beyond it.
	if classes["hit"] < 200 || classes["cold"] < 1 {
		return nil, fmt.Errorf("--seconds too short: %d hits and %d colds scheduled, need ≥200 and ≥1", classes["hit"], classes["cold"])
	}
	samples := openLoop(e, s, m.reqs)

	o := &outcome{metrics: map[string]float64{}}
	lat := map[string][]float64{}
	var late []float64
	var tp, fp, fn, deltaServed, deltaOK, uncachedHits int
	var lastDone time.Duration
	for i, sm := range samples {
		r := m.reqs[i]
		o.attempted++
		late = append(late, ms(sm.late))
		lastDone = max(lastDone, sm.done)
		switch {
		case sm.err != nil:
			o.fail(e, "request %d (%s %s): %v", i, r.class, r.b.name, sm.err)
			continue
		case sm.a.status != http.StatusOK:
			o.fail(e, "request %d (%s %s): HTTP %d", i, r.class, r.b.name, sm.a.status)
			continue
		case !slices.Equal(sm.a.res.FunctionStarts, r.b.want):
			o.fail(e, "request %d (%s %s): function starts differ from fetch.Analyze", i, r.class, r.b.name)
			continue
		}
		lat[r.class] = append(lat[r.class], ms(sm.lat))
		ev := metrics.Evaluate(toSet(sm.a.res.FunctionStarts), r.b.truth)
		tp, fp, fn = tp+ev.TP, fp+ev.FP, fn+ev.FN
		switch {
		case r.class == "hit" && !sm.a.cached:
			uncachedHits++
		case r.class == "delta":
			deltaOK++
			if sm.a.res.Stats.DeltaPath {
				deltaServed++
			}
		}
	}
	fmt.Fprintf(e.log, "perfbench: %d hits (%d not served from cache), %d deltas (%d by delta replay), %d colds answered\n",
		len(lat["hit"]), uncachedHits, len(lat["delta"]), deltaServed, len(lat["cold"]))
	if len(lat["hit"]) == 0 || len(lat["cold"]) == 0 {
		return nil, errors.New("no hit or no cold request was answered")
	}

	pid := strconv.Itoa(s.cmd.Process.Pid)
	rss, err := peakRSSMB(pid)
	if err != nil {
		return nil, err
	}
	if !e.trace {
		o.metrics["setup_s"] = median(setups)
		o.metrics["cold_ms_p50"] = median(lat["cold"])
		o.metrics["hit_ms_p50"] = median(lat["hit"])
		o.metrics["peak_rss_mb"] = rss
		o.metrics["precision"] = float64(tp) / float64(max(tp+fp, 1))
		o.metrics["recall"] = float64(tp) / float64(max(tp+fn, 1))
		o.metrics["ok_share"] = 1 - float64(o.failed)/float64(o.attempted)
		return o, nil
	}

	// Traced run: the server's own counters, then the analysis layers
	// re-driven in-process on a few of the cold builds.
	var st struct {
		PeakInFlight int64 `json:"peak_in_flight"`
		Analyze      struct {
			CacheHits     int64 `json:"cache_hits"`
			CacheMisses   int64 `json:"cache_misses"`
			QueueRejected int64 `json:"queue_rejected"`
		} `json:"analyze"`
	}
	blob, err := s.get("/v1/stats")
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(blob, &st); err != nil {
		return nil, fmt.Errorf("/v1/stats: %w", err)
	}
	prom, err := s.get("/metrics")
	if err != nil {
		return nil, err
	}
	qwait, err := histogramQuantile(string(prom), "fetchd_queue_wait_seconds", 0.95)
	if err != nil {
		return nil, err
	}

	tr := newTracer()
	sums := &layerSums{v: map[string]float64{}, self: map[string]time.Duration{}}
	traced := 0
	for _, r := range m.reqs {
		if r.class != "cold" || traced == 3 {
			continue
		}
		traced++
		b := &binary{name: r.b.name, data: r.b.raw, sum: sha256.Sum256(r.b.raw), truth: r.b.truth}
		if err := traceBinary(e, o, tr, sums, b); err != nil {
			return nil, err
		}
	}
	if err := tr.write(e.spans); err != nil {
		return nil, err
	}
	sums.finish(o)
	o.metrics["cache.hit_ratio"] = float64(st.Analyze.CacheHits) / float64(max(st.Analyze.CacheHits+st.Analyze.CacheMisses, 1))
	o.metrics["cache.delta_ratio"] = float64(deltaServed) / float64(max(deltaOK, 1))
	o.metrics["cache.delta_ms"] = median(lat["delta"])
	o.metrics["service.hit_ms_p95"] = percentile(lat["hit"], 95)
	o.metrics["service.queue_wait_ms_p95"] = qwait * 1e3
	o.metrics["service.peak_in_flight"] = float64(st.PeakInFlight)
	o.metrics["service.rejected"] = float64(st.Analyze.QueueRejected)
	o.metrics["loadgen.late_ms_p99"] = percentile(late, 99)
	span := m.reqs[len(m.reqs)-1].due
	o.metrics["loadgen.offered_rps"] = float64(len(m.reqs)) / max(span.Seconds(), 1e-9)
	o.metrics["loadgen.achieved_rps"] = float64(len(samples)) / max(lastDone.Seconds(), 1e-9)
	return o, nil
}

// openLoop sends every request at its due time, or as soon after it as
// a connection of its kind is free, and times it from its due time, so
// a stall also shows in the requests queued behind it. Re-uploads
// (hits) and new builds (deltas, colds) come from two populations of
// clients: reads use nproc-1 connections and writes one, so at most
// nproc requests are in flight and a slow write never holds up a read
// on the client side.
func openLoop(e *env, s *server, reqs []request) []sample {
	out := make([]sample, len(reqs))
	var reads, writes []int
	for i, r := range reqs {
		if r.class == "hit" {
			reads = append(reads, i)
		} else {
			writes = append(writes, i)
		}
	}
	start := time.Now()
	send := func(_ context.Context, _ int, i int) (struct{}, error) {
		if d := reqs[i].due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		sent := time.Since(start)
		a, err := s.analyze(reqs[i].b.raw)
		done := time.Since(start)
		out[i] = sample{lat: done - reqs[i].due, late: sent - reqs[i].due, done: done, a: a, err: err}
		return struct{}{}, nil
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		pool.Map(context.Background(), 1, writes, send)
	}()
	pool.Map(context.Background(), max(e.jobs-1, 1), reads, send)
	wg.Wait()
	return out
}

// histogramQuantile estimates quantile q of a Prometheus cumulative
// histogram as the upper bound of the first bucket that reaches it.
func histogramQuantile(text, name string, q float64) (float64, error) {
	type bucket struct{ le, n float64 }
	var bs []bucket
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, name+`_bucket{le="`)
		if !ok {
			continue
		}
		le, cnt, ok := strings.Cut(rest, `"} `)
		if !ok {
			continue
		}
		n, err := strconv.ParseFloat(strings.TrimSpace(cnt), 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		bound, err := strconv.ParseFloat(le, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		bs = append(bs, bucket{bound, n})
	}
	if len(bs) == 0 {
		return 0, fmt.Errorf("no %s histogram on /metrics", name)
	}
	// Past the last finite bound the quantile is only known to exceed
	// it; that bound is reported.
	total := bs[len(bs)-1].n
	for i, b := range bs {
		if b.n >= q*total {
			if math.IsInf(b.le, 1) && i > 0 {
				return bs[i-1].le, nil
			}
			return b.le, nil
		}
	}
	return 0, nil
}
