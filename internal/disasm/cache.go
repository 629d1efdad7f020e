package disasm

// decodeCache memoizes decodes by address. Walks look up every
// instruction they visit, so on binaries of a few hundred thousand
// instructions a hash map here is mostly cache misses; instead each
// executable section gets a chunk-lazy ownerSpan whose entries hold a
// slab position + 1 (0: not decoded yet) into an append-only, chunked
// entry slab. Slab chunks never move, so the index stays valid as the
// cache grows.
//
// The extra map holds what the dense index cannot: addresses outside
// every executable section, sections of maxDenseSection bytes or more,
// and — in a ParallelFork's cache, which has no spans at all — the
// fork's private overlay of new decodes.
type decodeCache struct {
	// spans is the dense index, one per executable section below
	// maxDenseSection, sorted by base.
	spans []ownerSpan
	// slab holds the dense index's entries in insertion order.
	slab [][]decodeEntry
	n    int
	// extra holds every entry the dense index does not.
	extra map[uint64]decodeEntry
	// alloc counts bytes of index chunk storage allocated so far.
	alloc int64
}

const (
	// slabChunkLen entries (48 KiB) per slab chunk: small enough that
	// a small binary wastes little on its last chunk, large enough
	// that chunk headers are noise.
	slabChunkShift = 10
	slabChunkLen   = 1 << slabChunkShift
	slabChunkMask  = slabChunkLen - 1
	// maxSlabEntries keeps slab positions + 1 within an int32 entry;
	// later entries go to the extra map.
	maxSlabEntries = 1<<31 - 1
)

// newDecodeCache builds an empty cache over the executable-section
// layout; no index chunk is allocated until a decode lands in it. With
// no layout it is the map-only overlay of a ParallelFork.
func newDecodeCache(layout []secExtent) *decodeCache {
	c := &decodeCache{extra: make(map[uint64]decodeEntry)}
	for _, l := range layout {
		if l.size >= maxDenseSection {
			continue // served by the extra map
		}
		c.spans = append(c.spans, newOwnerSpan(l.base, l.size))
	}
	return c
}

// get returns the memoized decode at addr. A nil cache (a session
// without a warm store) holds nothing. get never writes, so parallel
// forks may read their parent's cache concurrently.
func (c *decodeCache) get(addr uint64) (decodeEntry, bool) {
	if c == nil {
		return decodeEntry{}, false
	}
	if sp, d := findSpan(c.spans, addr); sp != nil {
		ch := sp.chunks[d>>ownerChunkShift]
		if ch == nil {
			return decodeEntry{}, false
		}
		v := ch[d&ownerChunkMask]
		if v == 0 {
			return decodeEntry{}, false
		}
		v--
		return c.slab[v>>slabChunkShift][v&slabChunkMask], true
	}
	e, ok := c.extra[addr]
	return e, ok
}

// put memoizes e at addr, which must not be cached yet.
func (c *decodeCache) put(addr uint64, e decodeEntry) {
	sp, d := findSpan(c.spans, addr)
	if sp == nil || c.n >= maxSlabEntries {
		c.extra[addr] = e
		return
	}
	ch, n := sp.chunkFor(d)
	c.alloc += n
	if c.n&slabChunkMask == 0 {
		c.slab = append(c.slab, make([]decodeEntry, 0, slabChunkLen))
	}
	last := len(c.slab) - 1
	c.slab[last] = append(c.slab[last], e)
	c.n++
	ch[d&ownerChunkMask] = int32(c.n)
}

// len returns the number of memoized decodes.
func (c *decodeCache) len() int { return c.n + len(c.extra) }

// accounted is the cache's share of Stats.PeakAuxBytes: the index
// chunks as allocated plus every entry at decodeEntryCost.
func (c *decodeCache) accounted() int64 {
	return c.alloc + int64(c.len())*decodeEntryCost
}

// absorb folds a ParallelFork's overlay into c. Overlay entries are
// pure decodes of the same image, so an address another fork already
// folded in holds the same entry and is skipped.
func (c *decodeCache) absorb(overlay *decodeCache) {
	for a, e := range overlay.extra {
		if _, ok := c.get(a); !ok {
			c.put(a, e)
		}
	}
}
