package disasm

import (
	"math/rand"
	"reflect"
	"testing"

	"fetch/internal/arch"
	"fetch/internal/synth"
)

// cacheTestLayout is a synthetic executable-section layout: a small
// section, one spanning several index chunks, and one of 2 GiB that
// must fall back to the map. No section bytes exist — the cache only
// needs the extents.
var cacheTestLayout = []secExtent{
	{base: 0x1000, size: 0x3000},
	{base: 0x100000, size: 3*ownerChunkLen + 77},
	{base: 0x1_0000_0000, size: maxDenseSection},
}

// cacheTestEntry is a distinguishable entry for addr.
func cacheTestEntry(addr uint64) decodeEntry {
	return decodeEntry{
		inst:   &arch.Inst{Addr: addr, Len: int(addr%15) + 1},
		kind:   decodeKind(addr%3) + decodeOK,
		consts: []uint64{addr ^ 0xfeed},
		rdi:    arch.GateEffect(addr % 4),
	}
}

// cacheTestAddr draws an address inside a random layout section, or
// outside every one.
func cacheTestAddr(rng *rand.Rand) uint64 {
	if rng.Intn(5) == 0 {
		outside := []uint64{0, 0xfff, 0x4000, 0x50000, 0x100000 + 3*ownerChunkLen + 77, 0x2_0000_0000}
		return outside[rng.Intn(len(outside))] + uint64(rng.Intn(64))
	}
	l := cacheTestLayout[rng.Intn(len(cacheTestLayout))]
	return l.base + uint64(rng.Int63n(int64(l.size)))
}

// requireCacheMatches checks every probed address and the entry count
// of c against the map reference.
func requireCacheMatches(t *testing.T, label string, c *decodeCache, ref map[uint64]decodeEntry, probes []uint64) {
	t.Helper()
	for _, a := range probes {
		got, ok := c.get(a)
		want, wantOK := ref[a]
		if ok != wantOK {
			t.Fatalf("%s: get(%#x) present=%v, reference present=%v", label, a, ok, wantOK)
		}
		if ok && (got.inst != want.inst || got.kind != want.kind || got.rdi != want.rdi || got.consts[0] != want.consts[0]) {
			t.Fatalf("%s: get(%#x) = %+v, reference %+v", label, a, got, want)
		}
	}
	if c.len() != len(ref) {
		t.Fatalf("%s: len = %d, reference %d", label, c.len(), len(ref))
	}
}

// TestDecodeCacheMatchesMap drives the dense cache and a plain map
// with the same random puts and requires identical answers for every
// address, inside the dense spans, in the 2 GiB fallback section, and
// outside every section.
func TestDecodeCacheMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := newDecodeCache(cacheTestLayout)
	if len(c.spans) != 2 {
		t.Fatalf("dense spans = %d, want 2 (the 2 GiB section must use the map)", len(c.spans))
	}
	ref := map[uint64]decodeEntry{}
	var probes []uint64
	for i := 0; i < 3*slabChunkLen+100; i++ {
		a := cacheTestAddr(rng)
		probes = append(probes, a, a+1, a-1)
		if _, ok := ref[a]; ok {
			continue
		}
		e := cacheTestEntry(a)
		c.put(a, e)
		ref[a] = e
	}
	requireCacheMatches(t, "dense", c, ref, probes)
	if len(c.extra) == 0 || c.n == 0 {
		t.Fatalf("dense=%d extra=%d: the draw must exercise both stores", c.n, len(c.extra))
	}
	for a := range c.extra {
		if sp, _ := findSpan(c.spans, a); sp != nil {
			t.Fatalf("%#x lies in a dense span but went to the map", a)
		}
	}
	// Accounting: allocated index chunks plus every entry.
	chunks := 0
	for _, sp := range c.spans {
		for _, ch := range sp.chunks {
			if ch != nil {
				chunks++
			}
		}
	}
	if want := int64(chunks)*ownerChunkLen*4 + int64(len(ref))*decodeEntryCost; c.accounted() != want {
		t.Fatalf("accounted = %d, want %d", c.accounted(), want)
	}
}

// TestDecodeCacheOverlayAbsorb mirrors ParallelFork/Absorb at the cache
// level: overlays read the parent as warm, keep their own decodes in a
// map with no dense index, and fold back into exactly the union.
func TestDecodeCacheOverlayAbsorb(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	parent := newDecodeCache(cacheTestLayout)
	ref := map[uint64]decodeEntry{}
	var probes []uint64
	for i := 0; i < 500; i++ {
		a := cacheTestAddr(rng)
		if _, ok := ref[a]; !ok {
			e := cacheTestEntry(a)
			parent.put(a, e)
			ref[a] = e
		}
		probes = append(probes, a)
	}
	// Two overlays decode overlapping address sets, as sibling forks
	// probing related candidates do.
	var overlays []*decodeCache
	union := map[uint64]decodeEntry{}
	for k := 0; k < 2; k++ {
		ov := newDecodeCache(nil)
		if len(ov.spans) != 0 {
			t.Fatal("overlay allocated a dense index")
		}
		for i := 0; i < 800; i++ {
			a := cacheTestAddr(rng)
			if i%4 == 0 && len(probes) > 0 {
				a = probes[rng.Intn(len(probes))] // a warm hit
			}
			if _, ok := parent.get(a); ok {
				continue
			}
			if _, ok := ov.get(a); ok {
				continue
			}
			e := union[a]
			if e.inst == nil {
				e = cacheTestEntry(a)
				union[a] = e
			}
			ov.put(a, e)
			probes = append(probes, a)
		}
		overlays = append(overlays, ov)
	}
	before := parent.len()
	for _, ov := range overlays {
		parent.absorb(ov)
	}
	for a, e := range union {
		ref[a] = e
	}
	requireCacheMatches(t, "absorbed", parent, ref, probes)
	if parent.len() <= before {
		t.Fatal("absorb added nothing")
	}
}

// TestParallelForkAbsorbCache checks the session-level contract on a
// real walk: a ParallelFork's new decodes stay in its overlay, and
// Absorb makes the parent's cache exactly the union.
func TestParallelForkAbsorbCache(t *testing.T) {
	im, _, sec := buildBinary(t, 114, func(c *synth.Config) { c.IndirectOnlyRate = 0.1 })
	seeds := sec.FunctionStarts()
	sess := NewSession(im, defaultOpts())
	sess.Extend(seeds[:len(seeds)/2])
	before := sess.cache.len()

	probeOpts := Options{ResolveJumpTables: true, Strict: true, MaxInsts: 2000}
	var forks []*Session
	for _, cand := range seeds[len(seeds)/2:] {
		f := sess.ParallelFork()
		f.Probe([]uint64{cand, cand + 1}, probeOpts)
		if len(f.cache.spans) != 0 || f.cache.n != 0 {
			t.Fatal("ParallelFork built a dense decode index")
		}
		forks = append(forks, f)
	}
	union := map[uint64]bool{}
	for _, f := range forks {
		for a := range f.cache.extra {
			if _, ok := sess.cache.get(a); ok {
				t.Fatalf("fork re-decoded %#x, which its warm parent holds", a)
			}
			union[a] = true
		}
	}
	for _, f := range forks {
		sess.Absorb(f)
	}
	if got, want := sess.cache.len(), before+len(union); got != want {
		t.Fatalf("parent cache after Absorb = %d entries, want %d", got, want)
	}
	for _, f := range forks {
		for a, e := range f.cache.extra {
			got, ok := sess.cache.get(a)
			if !ok || !reflect.DeepEqual(got, e) {
				t.Fatalf("absorbed entry at %#x differs", a)
			}
		}
	}
}
