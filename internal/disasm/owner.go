package disasm

import "sync"

// ownerMap indexes every byte of decoded instructions to the covering
// instruction's start; when instructions overlap, the last one written
// owns the shared bytes. It has three forms, all answering identically
// — the choice never affects results:
//
//   - Dense: one offset-indexed span per executable section. Unbounded
//     passes re-walk whole binaries every round and keep their index
//     in the committed Result, so they allocate their own.
//   - Probe: capped walks (candidate validation, jump-table probes,
//     delta-local walks) touch a few thousand bytes each, thousands of
//     times per binary. They borrow dense spans from the session's
//     ownerPool for the walk, and on release zero exactly the byte
//     ranges of their own instructions and hand the spans back. The
//     finished Result then answers from its Insts plus over, the few
//     bytes a later overlapping instruction took from an earlier one.
//   - Sparse: a per-byte map, only for images with a section of
//     maxDenseSection bytes or more, whose offsets a dense span cannot
//     hold.
//
// Dense spans are chunk-lazy: a span reserves address space for its
// whole section but allocates 64 Ki-entry chunks only when bytes in
// them are first written. Huge binaries are mostly padding and data
// the walk never touches — eager per-byte arrays would cost 4 bytes
// per text byte per pass regardless, which is exactly the memory the
// bytes-per-text-byte budget forbids.
type ownerMap struct {
	// spans is the dense form, one per executable section, sorted by
	// base; in the probe form, the pooled scratch while the walk runs.
	spans []ownerSpan
	// m is the sparse form; nil otherwise.
	m map[uint64]uint64
	// alloc counts bytes of dense chunk storage allocated so far — the
	// dense form's memory-accounting input for Stats.PeakAuxBytes.
	alloc int64

	// scratch is the probe form's borrowed owner while the walk runs.
	scratch *ownerScratch
	// released marks a finished probe walk: lookups answer from the
	// Result's Insts and over.
	released bool
	// over maps each byte an overlapping instruction rewrote to its
	// last writer (probe form).
	over map[uint64]uint64
	// covered counts distinct bytes the probe walk wrote — its
	// memory-accounting input, independent of which pooled scratch
	// served it.
	covered int64
}

const (
	// ownerChunkLen is the dense chunk granule: 64 Ki entries (256 KiB)
	// balances lazy savings on sparse text against per-write overhead.
	ownerChunkShift = 16
	ownerChunkLen   = 1 << ownerChunkShift
	ownerChunkMask  = ownerChunkLen - 1
)

// maxDenseSection bounds the dense per-section indexes: entries are
// int32(offset)+1 (owner) or int32(slab position)+1 (decode cache), so
// sections at or beyond 2 GiB use the sparse owner map and the decode
// cache's extra map instead.
const maxDenseSection = 1 << 31

// secExtent is one executable section's address range.
type secExtent struct {
	base uint64
	size int
}

// ownerSpan covers one executable section of size bytes starting at
// base: chunk entry (addr-base)&mask of chunk (addr-base)>>shift holds
// the owning instruction's section offset + 1, or 0 when uncovered.
// Unallocated chunks read as all-uncovered.
type ownerSpan struct {
	base   uint64
	size   int
	chunks [][]int32
}

// newOwnerSpan reserves a dense span without allocating any chunks.
func newOwnerSpan(base uint64, size int) ownerSpan {
	return ownerSpan{
		base:   base,
		size:   size,
		chunks: make([][]int32, (size+ownerChunkLen-1)>>ownerChunkShift),
	}
}

// ownerPool is a session's executable-section layout plus the dense
// scratch owners its capped walks borrow. Forks and parallel forks
// share it; the mutex makes borrowing safe from concurrent forks.
type ownerPool struct {
	layout []secExtent
	// sparse is set when some section is too large for dense spans.
	sparse bool
	mu     sync.Mutex
	free   []*ownerScratch
}

// ownerScratch is one poolable probe owner: dense spans that are all
// zero between walks, and the byte runs the current walk wrote.
type ownerScratch struct {
	pool  *ownerPool
	spans []ownerSpan
	runs  []ownerRun
}

// ownerRun is one instruction's bytes: n bytes from offset d of sp.
type ownerRun struct {
	sp *ownerSpan
	d  uint64
	n  int
}

func newOwnerPool(layout []secExtent) *ownerPool {
	p := &ownerPool{layout: layout}
	for _, l := range layout {
		if l.size >= maxDenseSection {
			p.sparse = true
		}
	}
	return p
}

// spans returns a fresh, chunkless dense span set over the layout.
func (p *ownerPool) spans() []ownerSpan {
	spans := make([]ownerSpan, len(p.layout))
	for i, l := range p.layout {
		spans[i] = newOwnerSpan(l.base, l.size)
	}
	return spans
}

// newOwner returns the owner index for one walk: the sparse form when
// the layout requires it, else pooled scratch for a capped walk or
// fresh dense spans for an unbounded one.
func (p *ownerPool) newOwner(capped bool) ownerMap {
	if p.sparse {
		return ownerMap{m: make(map[uint64]uint64)}
	}
	if !capped {
		return ownerMap{spans: p.spans()}
	}
	p.mu.Lock()
	var sc *ownerScratch
	if n := len(p.free); n > 0 {
		sc = p.free[n-1]
		p.free = p.free[:n-1]
	}
	p.mu.Unlock()
	if sc == nil {
		sc = &ownerScratch{pool: p, spans: p.spans()}
	}
	return ownerMap{spans: sc.spans, scratch: sc}
}

// release ends a probe walk: it zeroes exactly the byte runs of the
// walk's own instructions, returns the scratch to the pool, and
// switches lookups to the Result's Insts. Other forms are left as they
// are.
func (o *ownerMap) release() {
	sc := o.scratch
	if sc == nil {
		return
	}
	for _, r := range sc.runs {
		for k := r.d; k < r.d+uint64(r.n); k++ {
			r.sp.chunks[k>>ownerChunkShift][k&ownerChunkMask] = 0
		}
	}
	sc.runs = sc.runs[:0]
	p := sc.pool
	p.mu.Lock()
	p.free = append(p.free, sc)
	p.mu.Unlock()
	o.spans, o.scratch, o.released = nil, nil, true
}

// findSpan returns the span of the base-sorted spans covering addr
// and addr's offset in it.
func findSpan(spans []ownerSpan, addr uint64) (*ownerSpan, uint64) {
	for i := range spans {
		sp := &spans[i]
		if addr < sp.base {
			break // spans are sorted; no later span can match
		}
		if d := addr - sp.base; d < uint64(sp.size) {
			return sp, d
		}
	}
	return nil, 0
}

// chunkFor returns the chunk holding section offset d, allocating it
// on first write, and the bytes it newly allocated.
func (sp *ownerSpan) chunkFor(d uint64) ([]int32, int64) {
	ci := d >> ownerChunkShift
	if c := sp.chunks[ci]; c != nil {
		return c, 0
	}
	c := make([]int32, ownerChunkLen)
	sp.chunks[ci] = c
	return c, ownerChunkLen * 4
}

// chunk returns the chunk for section offset d, allocating it on first
// write. Only the dense form charges the allocation: pooled probe
// chunks outlive the walk, and which walk first touches one depends on
// scheduling.
func (o *ownerMap) chunk(sp *ownerSpan, d uint64) []int32 {
	c, n := sp.chunkFor(d)
	if o.scratch == nil {
		o.alloc += n
	}
	return c
}

// get returns the start of the instruction covering addr in a live
// (dense, sparse, or running probe) index.
func (o *ownerMap) get(addr uint64) (uint64, bool) {
	if o.m != nil {
		s, ok := o.m[addr]
		return s, ok
	}
	sp, d := findSpan(o.spans, addr)
	if sp == nil {
		return 0, false
	}
	c := sp.chunks[d>>ownerChunkShift]
	if c == nil {
		return 0, false
	}
	if v := c[d&ownerChunkMask]; v != 0 {
		return sp.base + uint64(v-1), true
	}
	return 0, false
}

// setRange marks the n bytes starting at addr as owned by the
// instruction at addr. Instruction bytes never cross a section end
// (decode windows are section-bounded), so the run stays in one span.
func (o *ownerMap) setRange(addr uint64, n int) {
	if o.m != nil {
		for b := addr; b < addr+uint64(n); b++ {
			o.m[b] = addr
		}
		return
	}
	sp, d := findSpan(o.spans, addr)
	if sp == nil {
		return
	}
	v := int32(d) + 1
	if o.scratch != nil {
		o.scratch.runs = append(o.scratch.runs, ownerRun{sp, d, n})
	}
	for k := d; k < d+uint64(n); k++ {
		c := o.chunk(sp, k)
		if o.scratch != nil {
			if c[k&ownerChunkMask] == 0 {
				o.covered++
			} else {
				if o.over == nil {
					o.over = make(map[uint64]uint64)
				}
				o.over[sp.base+k] = addr
			}
		}
		c[k&ownerChunkMask] = v
	}
}

// accounted is the index's share of Stats.PeakAuxBytes: dense chunks
// as allocated, sparse entries and probe-covered bytes at
// sparseOwnerCost each.
func (o *ownerMap) accounted() int64 {
	return o.alloc + (int64(len(o.m))+o.covered)*sparseOwnerCost
}

// ownerAt returns the start of the instruction covering addr. A
// released probe index answers from the instructions themselves: a
// byte written once has exactly one instruction covering it within
// MaxInstLen bytes back, and a byte written more than once is in over.
func (r *Result) ownerAt(addr uint64) (uint64, bool) {
	if !r.owner.released {
		return r.owner.get(addr)
	}
	if s, ok := r.owner.over[addr]; ok {
		return s, true
	}
	for back := 0; back < r.isa.MaxInstLen() && uint64(back) <= addr; back++ {
		if in, ok := r.Insts[addr-uint64(back)]; ok && in.Len > back {
			return addr - uint64(back), true
		}
	}
	return 0, false
}
