package disasm

import (
	"encoding/binary"
	"fmt"
	"sort"

	"fetch/internal/arch"
)

// This file holds the range-local view of the analysis behind delta
// re-analysis (ROADMAP item 3). The delta path analyzes only the
// ranges whose bytes changed between two builds and compares what each
// range shows the rest of the binary against the recorded run. It runs
// no walk of its own: WalkLocal is the committed pass (Session.pass)
// confined to one FDE-delimited byte range, and EntryReturns and
// CondFacts are the non-return inference walks (funcReturns,
// isCondNonRet) over that pass's result, under an explicit verdict
// environment. Anything the confined walk cannot answer from the
// range's own bytes — a run leaving the range, an instruction
// straddling its end, a mid-instruction arrival — is reported as a
// flag or !ok, and the caller falls back to a cold run: fidelity gaps
// cost time, never correctness.

// InstFact is the persisted skeleton of one decoded instruction:
// enough to rebuild coverage (owner) queries without re-decoding.
type InstFact struct {
	Addr uint64
	Len  uint16
}

// InstFacts is a persistable instruction skeleton. It carries a packed
// gob form — delta-varint addresses, varint lengths — because traces
// hold one fact per committed instruction and the generic per-struct
// gob path dominates trace decode time on large binaries.
type InstFacts []InstFact

// GobEncode packs the facts as (count, then per fact: addr delta from
// the previous fact, length), all uvarints.
func (f InstFacts) GobEncode() ([]byte, error) {
	buf := make([]byte, 0, 10+3*len(f))
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) {
		buf = append(buf, tmp[:binary.PutUvarint(tmp[:], v)]...)
	}
	put(uint64(len(f)))
	prev := uint64(0)
	for _, in := range f {
		if in.Addr < prev {
			return nil, fmt.Errorf("disasm: InstFacts not address-sorted")
		}
		put(in.Addr - prev)
		put(uint64(in.Len))
		prev = in.Addr
	}
	return buf, nil
}

// GobDecode unpacks the GobEncode form.
func (f *InstFacts) GobDecode(b []byte) error {
	rd := func() (uint64, error) {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, fmt.Errorf("disasm: truncated InstFacts")
		}
		b = b[n:]
		return v, nil
	}
	n, err := rd()
	if err != nil {
		return err
	}
	out := make(InstFacts, 0, n)
	prev := uint64(0)
	for i := uint64(0); i < n; i++ {
		d, err := rd()
		if err != nil {
			return err
		}
		l, err := rd()
		if err != nil {
			return err
		}
		prev += d
		out = append(out, InstFact{Addr: prev, Len: uint16(l)})
	}
	*f = out
	return nil
}

// Interval is a half-open byte range [Lo, Hi).
type Interval struct {
	Lo, Hi uint64
}

// Overlaps reports whether the interval intersects [lo, hi).
func (iv Interval) Overlaps(lo, hi uint64) bool {
	return iv.Lo < hi && lo < iv.Hi
}

// JumpFact is one jmp/jcc instruction whose target lies outside the
// walked range — the raw material of tail-call/merge decisions.
type JumpFact struct {
	Addr   uint64
	Target uint64
	Jcc    bool
}

// LocalFlags mark walk events the local model cannot replay soundly.
type LocalFlags uint8

// Local walk fidelity flags.
const (
	// LocalEscape: a fall-through run reached the range end, or an
	// instruction straddles the range boundary — the walk's
	// continuation depends on bytes outside the range.
	LocalEscape LocalFlags = 1 << iota
	// LocalSawMid: the walk arrived mid-instruction; the union-of-walks
	// order-independence argument no longer holds.
	LocalSawMid
)

// LocalFacts are the cross-range-visible outputs of one restricted
// walk under one verdict environment. Two builds whose changed ranges
// produce equal LocalFacts (per environment) are indistinguishable to
// every other function's analysis.
type LocalFacts struct {
	// Insts is the local coverage, sorted by address.
	Insts []InstFact
	// Calls is the sorted set of direct-call targets (function starts
	// this range contributes).
	Calls []uint64
	// Pushes is the sorted set of call, jump and jump-table targets
	// outside the range (coverage this range contributes elsewhere).
	Pushes []uint64
	// RefCounts counts Refs contributions per target (calls and jumps,
	// in- and out-of-range).
	RefCounts map[uint64]int
	// Consts is the sorted set of mapped pointer constants harvested.
	Consts []uint64
	// TableBases is the sorted set of resolved jump-table base
	// addresses.
	TableBases []uint64
	// TableReads are the data intervals read while resolving jump
	// tables: reused verdicts are only valid while these bytes are
	// unchanged.
	TableReads []Interval
	// JmpOut lists jmp/jcc instructions targeting outside the range,
	// in address order (the tail-call sweep's per-FDE inputs).
	JmpOut []JumpFact
	// Flags are the fidelity flags of the walk itself.
	Flags LocalFlags
}

// Equal reports whether two fact sets are indistinguishable to the
// rest of the analysis: everything except the local instruction
// addresses must match exactly. Insts are intentionally excluded —
// interior layout may shift without any cross-range effect — except
// that delta replay separately substitutes fresh coverage for changed
// ranges.
func (f *LocalFacts) Equal(g *LocalFacts) bool {
	if f.Flags != g.Flags {
		return false
	}
	if !u64SlicesEqual(f.Calls, g.Calls) || !u64SlicesEqual(f.Pushes, g.Pushes) ||
		!u64SlicesEqual(f.Consts, g.Consts) || !u64SlicesEqual(f.TableBases, g.TableBases) {
		return false
	}
	if len(f.RefCounts) != len(g.RefCounts) {
		return false
	}
	for t, n := range f.RefCounts {
		if g.RefCounts[t] != n {
			return false
		}
	}
	if len(f.JmpOut) != len(g.JmpOut) {
		return false
	}
	for i := range f.JmpOut {
		if f.JmpOut[i].Target != g.JmpOut[i].Target || f.JmpOut[i].Jcc != g.JmpOut[i].Jcc {
			return false
		}
	}
	return true
}

func u64SlicesEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// LocalWalk is the result of one restricted walk: the public facts
// plus the pass result the verdict evaluations run over.
type LocalWalk struct {
	rng   FuncRange
	res   *Result
	facts *LocalFacts
}

// Facts returns the walk's cross-visible facts.
func (lw *LocalWalk) Facts() *LocalFacts { return lw.facts }

// WalkLocal runs the committed pass under the session's options,
// confined to [rng.Start, rng.End), from the given entry addresses,
// under the given non-return environment, and projects the result
// onto the facts this range shows the rest of the binary: pushes that
// leave the range are recorded instead of followed, as the global
// walk's contribution of this range would appear to every other range.
func (s *Session) WalkLocal(rng FuncRange, entries []uint64,
	nonRet, condNonRet map[uint64]bool) *LocalWalk {

	res := s.pass(entries, s.opts, nonRet, condNonRet, &rng)
	facts := &LocalFacts{
		Insts:      res.InstFacts(),
		RefCounts:  make(map[uint64]int, len(res.Refs)),
		Consts:     sortedKeys(res.Constants),
		TableBases: sortedKeys(res.TableBases),
		TableReads: res.TableReads(),
	}
	for t, from := range res.Refs {
		facts.RefCounts[t] = len(from)
		if !rng.contains(t) {
			facts.Pushes = append(facts.Pushes, t)
		}
	}
	sort.Slice(facts.Pushes, func(i, j int) bool { return facts.Pushes[i] < facts.Pushes[j] })
	for _, f := range facts.Insts {
		in := res.Insts[f.Addr]
		switch in.Op {
		case arch.OpCall:
			if s.img.IsExec(in.Target) {
				facts.Calls = append(facts.Calls, in.Target)
			}
		case arch.OpJcc, arch.OpJmp:
			if !rng.contains(in.Target) {
				facts.JmpOut = append(facts.JmpOut, JumpFact{in.Addr, in.Target, in.Op == arch.OpJcc})
			}
		}
	}
	facts.Calls = sortedDistinct(facts.Calls)
	if res.escaped {
		facts.Flags |= LocalEscape
	}
	if res.sawMid {
		facts.Flags |= LocalSawMid
	}
	return &LocalWalk{rng: rng, res: res, facts: facts}
}

func sortedKeys(m map[uint64]bool) []uint64 {
	var out []uint64
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedDistinct(in []uint64) []uint64 {
	if len(in) == 0 {
		return nil
	}
	sort.Slice(in, func(i, j int) bool { return in[i] < in[j] })
	out := in[:1]
	for _, v := range in[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// EntryReturns is funcReturns for one entry of the walked range: does
// the entry return when the functions in nonRet never do and funcs is
// the function-start set? A call to a target outside funcs does not
// return, exactly as in the global inference. queried lists every
// target whose answer the verdict consulted, so the caller can reject
// environments where those answers were iteration-dependent. ok=false
// means the walk left the range and the verdict cannot be derived
// locally.
func (lw *LocalWalk) EntryReturns(entry uint64, nonRet, funcs map[uint64]bool) (verdict bool, queried []uint64, ok bool) {
	env := &verdictEnv{funcs: funcs, nonRet: nonRet, scope: &lw.rng}
	verdict = funcReturns(lw.res, entry, env)
	return verdict, env.queried, !env.escaped
}

// CondFacts is isCondNonRet for one entry of the walked range under
// the same environment as EntryReturns: is the entry an
// error/error_at_line-style function whose first-argument test guards
// a call into nonRet? queried and ok are as for EntryReturns.
func (lw *LocalWalk) CondFacts(entry uint64, nonRet, funcs map[uint64]bool) (verdict bool, queried []uint64, ok bool) {
	env := &verdictEnv{funcs: funcs, nonRet: nonRet, scope: &lw.rng}
	verdict = isCondNonRet(lw.res, entry, env)
	return verdict, env.queried, !env.escaped
}

// BuildCoverage constructs a coverage-only Result from persisted
// instruction facts: InstStartAt/Covered answer exactly as they would
// on the original result, with no decoded instruction values behind
// them. Delta replay uses it to answer the committed-state queries of
// candidate re-validation (seed rules and phase-overlap checks).
// It builds the dense owner form directly — one span per address
// cluster — because the sparse map costs one insert per covered byte,
// which dominates delta-replay time on large binaries.
func BuildCoverage(facts []InstFact) *Result {
	if !sort.SliceIsSorted(facts, func(i, j int) bool { return facts[i].Addr < facts[j].Addr }) {
		sorted := append([]InstFact(nil), facts...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Addr < sorted[j].Addr })
		facts = sorted
	}
	res := &Result{}
	const maxGap = 1 << 16 // start a new span across section-sized holes
	for i := 0; i < len(facts); {
		base := facts[i].Addr
		end := base
		j := i
		for j < len(facts) && facts[j].Addr <= end+maxGap {
			if e := facts[j].Addr + uint64(facts[j].Len); e > end {
				end = e
			}
			j++
		}
		res.owner.spans = append(res.owner.spans, newOwnerSpan(base, int(end-base)))
		sp := &res.owner.spans[len(res.owner.spans)-1]
		for k := i; k < j; k++ {
			d := facts[k].Addr - base
			v := int32(d) + 1
			for b := uint64(0); b < uint64(facts[k].Len); b++ {
				res.owner.chunk(sp, d+b)[(d+b)&ownerChunkMask] = v
			}
		}
		i = j
	}
	return res
}
