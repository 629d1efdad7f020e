package disasm

import (
	"reflect"
	"sync"
	"testing"

	"fetch/internal/ehframe"
	"fetch/internal/elfx"
	"fetch/internal/synth"
)

// sparseSession returns a session whose walks all use the sparse
// per-byte owner map — the reference form the probe form must match.
func sparseSession(im *elfx.Image, opts Options) *Session {
	s := NewSession(im, opts)
	s.owners.sparse = true
	return s
}

// requireSameOwners compares two results' owner answers byte by byte
// over [lo, hi) and checks the probe form's covered-byte accounting.
func requireSameOwners(t *testing.T, label string, got, want *Result, lo, hi uint64) {
	t.Helper()
	if !reflect.DeepEqual(got.Insts, want.Insts) {
		t.Fatalf("%s: Insts differ (%d vs %d)", label, len(got.Insts), len(want.Insts))
	}
	if !reflect.DeepEqual(got.Errors, want.Errors) {
		t.Fatalf("%s: Errors differ: %v vs %v", label, got.Errors, want.Errors)
	}
	covered := int64(0)
	for a := lo; a < hi; a++ {
		gs, gok := got.InstStartAt(a)
		ws, wok := want.InstStartAt(a)
		if gs != ws || gok != wok {
			t.Fatalf("%s: InstStartAt(%#x) = %#x,%v; sparse form %#x,%v", label, a, gs, gok, ws, wok)
		}
		if got.Covered(a) != want.Covered(a) {
			t.Fatalf("%s: Covered(%#x) differs", label, a)
		}
		if gok {
			covered++
		}
	}
	if got.owner.released && got.owner.covered != covered {
		t.Fatalf("%s: probe charged %d covered bytes, %d are covered", label, got.owner.covered, covered)
	}
}

// walkBounds returns a byte range enclosing every instruction of res,
// widened by a maximum instruction length on both sides.
func walkBounds(res *Result) (uint64, uint64) {
	lo, hi := ^uint64(0), uint64(0)
	for a, in := range res.Insts {
		if a < lo {
			lo = a
		}
		if in.Next() > hi {
			hi = in.Next()
		}
	}
	if lo == ^uint64(0) {
		return 0, 0
	}
	return lo - 16, hi + 16
}

// requireScratchClean fails unless every pooled owner chunk is zero.
func requireScratchClean(t *testing.T, label string, p *ownerPool) {
	t.Helper()
	if len(p.free) == 0 {
		t.Fatalf("%s: no scratch returned to the pool", label)
	}
	for _, sc := range p.free {
		if len(sc.runs) != 0 {
			t.Fatalf("%s: pooled scratch kept %d runs", label, len(sc.runs))
		}
		for _, sp := range sc.spans {
			for ci, c := range sp.chunks {
				for k, v := range c {
					if v != 0 {
						t.Fatalf("%s: stale owner byte %#x after release", label, sp.base+uint64(ci<<ownerChunkShift+k))
					}
				}
			}
		}
	}
}

// overlapImage is a hand-assembled x86-64 walk in which a later
// instruction overwrites bytes of two earlier ones:
//
//	0: eb 03           jmp  5
//	2: cc              (unreached)
//	3: 05 90 74 fc c3  add  eax, 0xc3fc7490   (reached last, from 5)
//	5: 74 fc           jz   3                 (bytes 5..6 rewritten by 3)
//	7: c3              ret                    (byte 7 rewritten by 3)
//	8: c3              ret
//
// The LIFO walk decodes 0, 5, 7, then 3 — whose five bytes cover 5..7
// — then 8. Bytes 5..7 belong to the add, the last writer.
func overlapImage() (*elfx.Image, uint64) {
	const base = 0x401000
	code := []byte{0xeb, 0x03, 0xcc, 0x05, 0x90, 0x74, 0xfc, 0xc3, 0xc3}
	return &elfx.Image{Sections: []*elfx.Section{
		{Name: ".text", Addr: base, Data: code, Flags: elfx.FlagAlloc | elfx.FlagExec},
	}}, base
}

// TestProbeOwnerOverlap pins last-writer-wins on a crafted overlapping
// walk, then reuses the same scratch for a walk that would misfire on
// any stale byte.
func TestProbeOwnerOverlap(t *testing.T) {
	im, base := overlapImage()
	opts := Options{ResolveJumpTables: true, Strict: true, MaxInsts: 2000}
	sess := NewSession(im, opts)
	ref := sparseSession(im, opts)

	got := sess.Probe([]uint64{base}, opts)
	want := ref.Probe([]uint64{base}, opts)
	if !got.owner.released || want.owner.m == nil {
		t.Fatal("expected the probe form against the sparse form")
	}
	requireSameOwners(t, "overlap", got, want, base-16, base+32)
	for a := base + 5; a <= base+7; a++ {
		if s, _ := got.InstStartAt(a); s != base+3 {
			t.Fatalf("InstStartAt(%#x) = %#x, want the last writer %#x", a, s, base+3)
		}
	}
	if len(got.owner.over) != 3 {
		t.Fatalf("over table has %d bytes, want 3", len(got.owner.over))
	}
	requireScratchClean(t, "after overlap walk", sess.owners)

	// A stale byte 5→3 would flag the jz as mid-instruction.
	got = sess.Probe([]uint64{base + 5}, opts)
	want = ref.Probe([]uint64{base + 5}, opts)
	requireSameOwners(t, "reused scratch", got, want, base-16, base+32)
	if len(got.Errors) != 0 {
		t.Fatalf("reused scratch walk reported %v", got.Errors)
	}
	requireScratchClean(t, "after second walk", sess.owners)
}

// TestProbeOwnerMatchesSparse runs aligned and misaligned probes from
// every fifth function start on one session, so each walk reuses scratch
// the previous one cleared, and compares every byte around each walk
// with the sparse form.
func TestProbeOwnerMatchesSparse(t *testing.T) {
	for ci, mutate := range equivalenceConfigs() {
		im, _, sec := buildBinary(t, 120+int64(ci), mutate)
		seeds := sec.FunctionStarts()
		for _, opts := range []Options{
			{ResolveJumpTables: true, Strict: true, MaxInsts: 2000},
			{Strict: true, MaxInsts: 64},
		} {
			sess := NewSession(im, defaultOpts())
			sess.Extend(seeds)
			ref := sparseSession(im, defaultOpts())
			for i := 0; i < len(seeds); i += 5 {
				for _, cand := range []uint64{seeds[i], seeds[i] + 1, seeds[i] + 2} {
					got := sess.Probe([]uint64{cand}, opts)
					want := ref.Probe([]uint64{cand}, opts)
					lo, hi := walkBounds(want)
					requireSameOwners(t, "probe", got, want, lo, hi)
				}
			}
			requireScratchClean(t, "probes", sess.owners)
		}
	}
}

// TestParallelForkProbesConcurrent runs probes on ParallelForks from
// several goroutines at once — they share the parent's warm cache and
// the owner pool — and requires every result to match a scratch run.
func TestParallelForkProbesConcurrent(t *testing.T) {
	im, _, sec := buildBinary(t, 116, func(c *synth.Config) { c.IndirectOnlyRate = 0.1 })
	seeds := sec.FunctionStarts()
	opts := Options{ResolveJumpTables: true, Strict: true, MaxInsts: 2000}
	sess := NewSession(im, defaultOpts())
	sess.Extend(seeds[:len(seeds)/2])

	const workers = 4
	got := make([]*Result, 2*len(seeds))
	forks := make([]*Session, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		forks[w] = sess.ParallelFork()
		wg.Add(1)
		go func(f *Session, w int) {
			defer wg.Done()
			for i := w; i < len(got); i += workers {
				got[i] = f.Probe([]uint64{seeds[i/2] + uint64(i%2)}, opts)
			}
		}(forks[w], w)
	}
	wg.Wait()
	for _, f := range forks {
		sess.Absorb(f)
	}
	for i, res := range got {
		want := Recursive(im, []uint64{seeds[i/2] + uint64(i%2)}, opts)
		requireEqualResults(t, "concurrent probe", res, want)
	}
	requireScratchClean(t, "concurrent probes", sess.owners)
}

// TestAbsorbFoldsPeakAuxBytes checks that a ParallelFork's memory
// high-water mark reaches its parent, merged by max like Stats.Add.
func TestAbsorbFoldsPeakAuxBytes(t *testing.T) {
	im, _, sec := buildBinary(t, 115, nil)
	seeds := sec.FunctionStarts()
	opts := Options{ResolveJumpTables: true, Strict: true, MaxInsts: 2000}
	sess := NewSession(im, defaultOpts())

	f := sess.ParallelFork()
	f.Probe(seeds[:1], opts)
	peak := f.Stats().PeakAuxBytes
	if peak == 0 {
		t.Fatal("fork recorded no auxiliary memory")
	}
	sess.Absorb(f)
	if got := sess.Stats().PeakAuxBytes; got != peak {
		t.Fatalf("parent PeakAuxBytes after Absorb = %d, want the fork's %d", got, peak)
	}
	// The same walk again finds every decode warm, so its footprint is
	// smaller; a max leaves the mark alone where a sum would grow it.
	g := sess.ParallelFork()
	g.Probe(seeds[:1], opts)
	if g.Stats().PeakAuxBytes >= peak {
		t.Fatalf("warm fork peak %d not below the cold one %d", g.Stats().PeakAuxBytes, peak)
	}
	sess.Absorb(g)
	if got := sess.Stats().PeakAuxBytes; got != peak {
		t.Fatalf("parent PeakAuxBytes after second Absorb = %d, want %d", got, peak)
	}
}

// probeBench builds the probe workload: a synthetic binary whose
// decodes are already cached by a full Extend, the FDE seeds to probe
// one at a time, and the capped options of §IV-E candidate validation.
// insts is the mean instruction count of one probe.
func probeBench(tb testing.TB) (sess *Session, seeds []uint64, opts Options, insts float64) {
	tb.Helper()
	cfg := synth.DefaultConfig("probe-bench", 7, synth.O2, synth.GCC, synth.LangC)
	im, _, err := synth.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	eh, ok := im.Section(".eh_frame")
	if !ok {
		tb.Fatal("no .eh_frame")
	}
	sec, err := ehframe.Decode(eh.Data, eh.Addr)
	if err != nil {
		tb.Fatal(err)
	}
	seeds = sec.FunctionStarts()
	sess = NewSession(im, defaultOpts())
	sess.Extend(seeds)
	opts = Options{ResolveJumpTables: true, Strict: true, MaxInsts: 2000}
	total := 0
	for _, s := range seeds {
		total += len(sess.Probe([]uint64{s}, opts).Insts)
	}
	return sess, seeds, opts, float64(total) / float64(len(seeds))
}

// BenchmarkProbe measures one capped session probe — the §IV-E candidate
// validation walk — over a synthetic binary whose decodes are already
// cached, so ns/op, B/op and allocs/op isolate the walk's own
// structures.
func BenchmarkProbe(b *testing.B) {
	sess, seeds, opts, insts := probeBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.Probe([]uint64{seeds[i%len(seeds)]}, opts)
	}
	b.ReportMetric(insts, "insts/probe")
}

// probeAllocsCeiling is the mean allocation count of one probe in the
// probeBench workload (1,665 instructions a probe), measured with
// go1.24.0 on linux/amd64 by testing.AllocsPerRun over one probe of
// every seed, the same with and without -race. It counts Go map
// allocations, so it moves with the toolchain's map implementation. A
// change that moves it updates the constant and says why.
const probeAllocsCeiling = 317

// TestProbeAllocCeiling fails when a candidate-validation probe
// allocates more than the recorded ceiling, e.g. one extra allocation
// per probe.
func TestProbeAllocCeiling(t *testing.T) {
	sess, seeds, opts, insts := probeBench(t)
	if int(insts) != 1665 {
		t.Fatalf("probe workload walks %.1f instructions a probe, want 1665", insts)
	}
	i := 0
	allocs := testing.AllocsPerRun(len(seeds), func() {
		sess.Probe([]uint64{seeds[i%len(seeds)]}, opts)
		i++
	})
	if allocs > probeAllocsCeiling {
		t.Errorf("probe: %.0f allocs, ceiling %d", allocs, probeAllocsCeiling)
	}
}
