package x64

import (
	"math"
	"runtime"
	"testing"
)

// benchSink keeps the decode loop from being optimized away.
var benchSink int

// benchCode assembles ~64 KiB of representative straight-line code —
// the prologue/ALU/memory mix synth emits — for throughput runs and
// the allocation ceiling.
func benchCode(tb testing.TB) []byte {
	tb.Helper()
	var a Asm
	for a.Len() < 1<<16 {
		a.PushReg(RBP)
		a.MovRegReg(RBP, RSP)
		a.SubRSP(0x20)
		a.MovRegImm32(RAX, 0x1234)
		a.MovRegMem(RCX, RBP, -8)
		a.AddRegReg(RAX, RCX)
		a.CmpRegImm(RAX, 64)
		a.TestRegReg(RDI, RDI)
		a.ImulRegReg(RAX, RCX)
		a.ShlRegImm(RAX, 3)
		a.LeaRegMem(RDX, RSP, 0x10)
		a.MovMemReg(RBP, -16, RAX)
		a.AddRSP(0x20)
		a.PopReg(RBP)
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
// representative mix; MB/s pairs with the aarch64 twin. Wall time is
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

// Ceilings for one decodePass over benchCode (65,550 bytes, 19,665
// instructions), measured with go1.24.0 on linux/amd64 by passCost,
// the same with and without -race. A change that moves either updates
// the constant and says why.
const (
	decodeAllocsCeiling = 18354
	decodeBytesCeiling  = 1384416
)

// TestDecodeAllocCeiling fails when decoding allocates more than the
// recorded ceilings, e.g. one extra allocation per instruction.
func TestDecodeAllocCeiling(t *testing.T) {
	code := benchCode(t)
	if n := decodePass(t, code); n != 19665 {
		t.Fatalf("bench code decodes to %d instructions, want 19665", n)
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
