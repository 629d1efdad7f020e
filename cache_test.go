package fetch

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// stripWall zeroes the only legitimately non-deterministic Result
// fields — pass wall times plus the delta-path trace, which describes
// how a result was obtained rather than what it is — so cached,
// delta-served, and recomputed results can be compared exactly.
func stripWall(r *Result) *Result {
	cp := *r
	cp.Stats.Passes = append([]PassStat(nil), r.Stats.Passes...)
	for i := range cp.Stats.Passes {
		cp.Stats.Passes[i].Wall = 0
	}
	cp.Stats.DeltaPath = false
	cp.Stats.DeltaDirtyRanges = 0
	cp.Stats.DeltaTotalRanges = 0
	cp.Stats.DeltaFallbackReason = ""
	return &cp
}

// resultTier recovers the whole-binary-result traffic from raw cache
// counters, which also carry the delta tier's manifest and
// function-range traffic (see CacheStats).
func resultTier(st CacheStats) (hits, misses, puts int64) {
	return st.Hits - st.ManifestHits - st.FnTierHits,
		st.Misses - st.ManifestMisses - st.FnTierMisses,
		st.Puts - st.DeltaPuts
}

func sampleBytes(t testing.TB, seed int64) []byte {
	t.Helper()
	raw, _, err := GenerateSample(SampleConfig{Seed: seed, NumFuncs: 60, Stripped: true})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestWithCacheServesSecondCall(t *testing.T) {
	cache, err := NewCache(CacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	bin := sampleBytes(t, 9001)

	cold, err := Analyze(bin, WithCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Analyze(bin, WithCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripWall(cold), stripWall(warm)) {
		t.Fatal("cached result differs from cold result")
	}
	st := cache.Stats()
	if hits, misses, puts := resultTier(st); misses != 1 || hits != 1 || puts != 1 {
		t.Fatalf("cache counters: %+v", st)
	}

	// An uncached analysis of the same bytes must agree too.
	plain, err := Analyze(bin)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripWall(plain), stripWall(warm)) {
		t.Fatal("cached result differs from uncached analysis")
	}
}

func TestCacheKeysOnStrategy(t *testing.T) {
	cache, err := NewCache(CacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	bin := sampleBytes(t, 9002)
	full, err := Analyze(bin, WithCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	fde, err := Analyze(bin, WithCache(cache), FDEOnly())
	if err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if _, misses, puts := resultTier(st); misses != 2 || puts != 2 {
		t.Fatalf("strategies aliased in cache: %+v", st)
	}
	if len(fde.Stats.Passes) != 1 || len(full.Stats.Passes) < 3 {
		t.Fatalf("strategy results mixed up: fde ran %v, full ran %v",
			fde.Stats.Passes, full.Stats.Passes)
	}
}

func TestCacheGetByHash(t *testing.T) {
	cache, err := NewCache(CacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	bin := sampleBytes(t, 9003)
	sum := HashBinary(bin)
	if _, ok := cache.Get(sum); ok {
		t.Fatal("hit before any analysis")
	}
	want, err := Analyze(bin, WithCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := cache.Get(sum)
	if !ok {
		t.Fatal("by-hash miss after analysis")
	}
	if !reflect.DeepEqual(stripWall(want), stripWall(got)) {
		t.Fatal("by-hash result differs")
	}
	// The variant is part of the key.
	if _, ok := cache.Get(sum, FDEOnly()); ok {
		t.Fatal("by-hash hit for a never-analyzed strategy")
	}
}

func TestCacheAnalyzeReportsHit(t *testing.T) {
	cache, err := NewCache(CacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	bin := sampleBytes(t, 9004)
	_, cached, err := cache.Analyze(bin)
	if err != nil || cached {
		t.Fatalf("first: cached=%v err=%v", cached, err)
	}
	_, cached, err = cache.Analyze(bin)
	if err != nil || !cached {
		t.Fatalf("second: cached=%v err=%v", cached, err)
	}
}

// TestRecordedRunKeepsOwnResult pins the write order of a recorded
// cold run: a binary with more function ranges than the default
// memory bound (1,024 entries) must still be a hit on its second
// analysis, because the per-range entries it writes evict each other,
// never its result.
func TestRecordedRunKeepsOwnResult(t *testing.T) {
	cache, err := NewCache(CacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	bin, _, err := GenerateSample(SampleConfig{Seed: 9016, NumFuncs: 1500, Stripped: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, cached, err := cache.Analyze(bin); err != nil || cached {
		t.Fatalf("first: cached=%v err=%v", cached, err)
	}
	if st := cache.Stats(); st.Evictions == 0 {
		t.Fatalf("sample too small to overflow the memory bound: %+v", st)
	}
	if _, cached, err := cache.Analyze(bin); err != nil || !cached {
		t.Fatalf("second: cached=%v err=%v, stats %+v", cached, err, cache.Stats())
	}
}

func TestDiskCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	bin := sampleBytes(t, 9005)

	c1, err := NewCache(CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Analyze(bin, WithCache(c1))
	if err != nil {
		t.Fatal(err)
	}

	c2, err := NewCache(CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Analyze(bin, WithCache(c2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripWall(want), stripWall(got)) {
		t.Fatal("disk-restored result differs")
	}
	st := c2.Stats()
	if st.DiskHits != 1 {
		t.Fatalf("expected a disk hit: %+v", st)
	}
}

// TestDiskCacheRecomputesCorruptedEntry truncates the only on-disk
// entry and requires the next analysis to silently recompute and
// re-store it.
func TestDiskCacheRecomputesCorruptedEntry(t *testing.T) {
	dir := t.TempDir()
	bin := sampleBytes(t, 9006)
	c1, err := NewCache(CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Analyze(bin, WithCache(c1))
	if err != nil {
		t.Fatal(err)
	}
	all, err := filepath.Glob(filepath.Join(dir, "*.rc"))
	if err != nil {
		t.Fatal(err)
	}
	// The delta tier adds manifest ("-mf.") and function-range ("-fn-")
	// entries beside the whole-binary result; corrupt the result entry.
	var entries []string
	for _, e := range all {
		base := filepath.Base(e)
		if !strings.Contains(base, "-mf.") && !strings.Contains(base, "-fn-") {
			entries = append(entries, e)
		}
	}
	if len(entries) != 1 {
		t.Fatalf("result entries %v", entries)
	}
	raw, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entries[0], raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := NewCache(CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Analyze(bin, WithCache(c2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripWall(want), stripWall(got)) {
		t.Fatal("recomputed result differs after corruption")
	}
	st := c2.Stats()
	if _, _, puts := resultTier(st); st.CorruptDrops != 1 || puts != 1 {
		t.Fatalf("corruption recovery counters: %+v", st)
	}
}
