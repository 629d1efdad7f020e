package a64

import (
	"math"
	"runtime"
	"testing"
)

// benchSink keeps the decode loop from being optimized away.
var benchSink int

// benchCode assembles ~64 KiB of representative straight-line code —
// the frame/ALU/memory mix synth emits — for throughput runs and
// the allocation ceiling.
func benchCode(tb testing.TB) []byte {
	tb.Helper()
	var a Asm
	for a.Len() < 1<<16 {
		a.StpPre(X29, X30, -16)
		a.MovFPSP()
		a.SubSP(0x20)
		a.MovRegImm(X9, 0x1234)
		a.LdrRegMem(X10, X29, 8)
		a.AddRegReg(X9, X10)
		a.CmpRegImm(X9, 64)
		a.TestRegReg(X0, X0)
		a.MulRegReg(X9, X10)
		a.LslRegImm(X9, 3)
		a.AddRegRegImm(X11, SP, 0x10)
		a.StrRegMem(X9, X29, 16)
		a.AddSP(0x20)
		a.LdpPost(X29, X30, 16)
		a.Ret()
	}
	code, fixups, err := a.Finish()
	if err != nil {
		tb.Fatal(err)
	}
	if len(fixups) != 0 {
		tb.Fatalf("bench code has %d unresolved fixups", len(fixups))
	}
	return code
}

// decodePass linearly decodes all of code and returns the instruction
// count.
func decodePass(tb testing.TB, code []byte) int {
	const base = 0x401000
	n := 0
	for off := 0; off < len(code); {
		in, err := Decode(code[off:], base+uint64(off))
		if err != nil {
			tb.Fatal(err)
		}
		off += int(in.Len)
		n++
	}
	return n
}

// BenchmarkDecodeThroughput measures raw linear decode speed over the
// representative mix; MB/s pairs with the x86-64 twin. Wall time is
// not gated: a shared machine's clock swings too much between runs.
// TestDecodeAllocCeiling gates the deterministic cost of the same pass.
func BenchmarkDecodeThroughput(b *testing.B) {
	code := benchCode(b)
	b.SetBytes(int64(len(code)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = decodePass(b, code)
	}
}

// Ceilings for one decodePass over benchCode (65,580 bytes, 16,395
// instructions), measured with go1.24.0 on linux/amd64 by passCost,
// the same with and without -race. A change that moves either updates
// the constant and says why.
const (
	decodeAllocsCeiling = 15302
	decodeBytesCeiling  = 1573920
)

// TestDecodeAllocCeiling fails when decoding allocates more than the
// recorded ceilings, e.g. one extra allocation per instruction.
func TestDecodeAllocCeiling(t *testing.T) {
	code := benchCode(t)
	if n := decodePass(t, code); n != 16395 {
		t.Fatalf("bench code decodes to %d instructions, want 16395", n)
	}
	allocs, bytes := passCost(func() { benchSink = decodePass(t, code) })
	if allocs > decodeAllocsCeiling {
		t.Errorf("decode pass: %.0f allocs, ceiling %d", allocs, decodeAllocsCeiling)
	}
	if bytes > decodeBytesCeiling {
		t.Errorf("decode pass: %d heap bytes, ceiling %d", bytes, decodeBytesCeiling)
	}
}

// passCost measures one call of f: testing.AllocsPerRun over 20 calls
// for the allocation count, the TotalAlloc delta over 20 calls for the
// heap bytes. A stray runtime allocation can only add, so each figure
// is the least of three trials.
func passCost(f func()) (allocs float64, bytes uint64) {
	const runs = 20
	allocs, bytes = math.Inf(1), math.MaxUint64
	for trial := 0; trial < 3; trial++ {
		allocs = min(allocs, testing.AllocsPerRun(runs, f))
		bytes = min(bytes, heapBytesPerRun(runs, f))
	}
	return allocs, bytes
}

// heapBytesPerRun is testing.AllocsPerRun for bytes: the average heap
// bytes one call of f allocates, after a warm-up call.
func heapBytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
