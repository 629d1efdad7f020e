package disasm

import (
	"fetch/internal/arch"
	"fetch/internal/elfx"
)

// Stats counts the work a Session (and its forks) performed. All
// counters are deterministic for a given binary and call sequence:
// parallel corpus analysis never changes them.
type Stats struct {
	// InstsDecoded counts decode-cache misses: addresses whose bytes
	// were actually fed through the backend decoder.
	InstsDecoded int64
	// InstsReused counts decode-cache hits: instruction lookups served
	// from a previous decode of the same address.
	InstsReused int64
	// ColdStarts counts sessions created with an empty decode cache.
	// Parallel forks read their parent's cache and do not increment it,
	// so a fully incremental pipeline reports exactly one.
	ColdStarts int
	// Extends, Retracts, and Reruns count committed seed-set updates.
	Extends  int
	Retracts int
	Reruns   int
	// Forks counts parallel forks (ParallelFork).
	Forks int
	// Probes counts speculative one-shot walks (candidate validation,
	// jump-table resolution) that left committed state untouched.
	Probes int
	// FixedPointPasses counts individual recursive-descent passes,
	// including the inner iterations of the non-returning fixed point
	// and probe walks. Parallel candidate validation probes a superset
	// of the sequential loop's, so the total is a scheduling trace like
	// Probes and Forks.
	FixedPointPasses int

	// PeakAuxBytes is the high-water accounted estimate of one pass's
	// auxiliary memory: the pass's owner index (dense chunks as
	// allocated; sparse entries and probe-covered bytes at
	// sparseOwnerCost) plus the decode cache (index chunks as
	// allocated, entries at decodeEntryCost). It is an accounting of
	// data-structure growth (deterministic for a given call sequence),
	// not a heap measurement; like the decode counters it is an
	// execution trace, reported in the public run trace (fetch.Run).
	PeakAuxBytes int64
}

// Accounted per-entry costs behind PeakAuxBytes. A decode-cache entry
// is a 48-byte decodeEntry (a slab slot, or the value of an extra-map
// slot) plus its heap arch.Inst in the 80-byte size class; operand and
// constant slices are not counted. A sparse-owner entry is one
// uint64→uint64 map slot; a probe walk is charged the same per byte it
// covers, whichever pooled scratch it ran on.
const (
	decodeEntryCost = 128
	sparseOwnerCost = 16
)

// notePassMem folds one finished pass's data-structure footprint into
// the PeakAuxBytes high-water mark.
func (s *Session) notePassMem(res *Result) {
	if aux := res.owner.accounted() + s.cache.accounted(); aux > s.stats.PeakAuxBytes {
		s.stats.PeakAuxBytes = aux
	}
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.InstsDecoded += other.InstsDecoded
	s.InstsReused += other.InstsReused
	s.ColdStarts += other.ColdStarts
	s.Extends += other.Extends
	s.Retracts += other.Retracts
	s.Reruns += other.Reruns
	s.Forks += other.Forks
	s.Probes += other.Probes
	s.FixedPointPasses += other.FixedPointPasses
	// A high-water mark merges by max: forks ran against the same
	// budget, not after each other.
	if other.PeakAuxBytes > s.PeakAuxBytes {
		s.PeakAuxBytes = other.PeakAuxBytes
	}
}

// decodeKind classifies a cached decode outcome.
type decodeKind uint8

const (
	decodeOK decodeKind = iota + 1
	// decodeNoWindow: no section bytes at the address.
	decodeNoWindow
	// decodeBad: the bytes do not form a valid instruction.
	decodeBad
)

// decodeEntry is one memoized decode. Everything here — the
// instruction, the failure mode, the mapped constant operands, and the
// gate-register classification (the §IV-C error/error_at_line slice
// step; RDI on x86-64, X0 on aarch64) — is a pure function of the
// image bytes at the address, so entries never invalidate and can be
// shared across passes, forks, and strategy variants.
type decodeEntry struct {
	inst *arch.Inst
	kind decodeKind
	// consts are the instruction's pointer-sized constants that land
	// in mapped sections (the image is fixed per session).
	consts []uint64
	rdi    arch.GateEffect
}

// Session owns the reusable disassembly state of one binary: the
// persistent instruction-decode cache, the pool of probe owner
// scratch, the committed seed list, and the current Result. It
// supports incremental re-analysis — Extend explores additional seeds,
// Retract removes seeds (the §V-B CFI-error re-analysis), Rerun
// replaces the seed list — while guaranteeing results byte-identical
// to a from-scratch Recursive run over the same final seed list: every
// walk replays the full fixed point in the same order, and only the
// per-address decodes (pure in the image bytes) are reused.
//
// Both hot-path structures are offset-indexed arrays over the
// executable sections rather than hash maps: the decode cache is
// looked up once per visited instruction and the owner index written
// once per instruction byte, and at a few hundred thousand entries map
// lookups were the walk's main cost.
//
// A Session is not safe for concurrent use; analyze each binary's
// session from a single goroutine. Concurrent work within one binary
// goes through ParallelFork/Absorb.
type Session struct {
	img   *elfx.Image
	isa   arch.ISA
	opts  Options
	cache *decodeCache
	stats *Stats
	seeds []uint64
	res   *Result
	// warm is a read-only fallback decode cache (the parent session's
	// cache, shared by parallel probe forks). Entries found here are
	// never copied into cache: the parent already owns them.
	warm *decodeCache
	// owners holds the executable-section layout and the dense scratch
	// owners capped walks borrow; every fork shares it.
	owners *ownerPool
	// obs, when set, observes every committed pass (Extend, Retract,
	// Rerun); probes and forks never report. observing gates the hook to
	// committed exec calls only.
	obs       ExecObserver
	observing bool
}

// ExecObserver receives every committed fixed-point pass of a session:
// the non-return knowledge the pass ran under and the pass result. The
// delta-analysis recorder uses it to capture the verdict-environment
// trajectory a cold run traversed; replay verifies changed functions
// against exactly these environments. The maps are live session state —
// observers must copy what they keep and must not mutate anything.
type ExecObserver interface {
	OnPass(nonRet, condNonRet map[uint64]bool, res *Result)
}

// SetExecObserver installs the committed-pass observer (nil disables).
func (s *Session) SetExecObserver(o ExecObserver) { s.obs = o }

// NewSession creates a session for img with the committed-state
// options used by Extend, Retract, and Rerun. Probe takes its own
// options per call.
func NewSession(img *elfx.Image, opts Options) *Session {
	var layout []secExtent
	for _, sec := range img.ExecSections() {
		layout = append(layout, secExtent{sec.Addr, int(sec.Size())})
	}
	return &Session{
		img:    img,
		isa:    img.ISA(),
		opts:   opts,
		cache:  newDecodeCache(layout),
		stats:  &Stats{ColdStarts: 1},
		owners: newOwnerPool(layout),
	}
}

// ParallelFork returns a fork that is safe to use concurrently with
// other ParallelForks of the same session: it reads the parent's
// decode cache as an immutable warm store and writes new decodes to a
// private map overlay (no dense index per fork), with private
// counters; capped walks borrow owner scratch from the shared pool.
// The parent session must stay idle while parallel forks run;
// afterwards, Absorb folds each fork's overlay and counters back into
// the parent. Decode entries are pure
// functions of the image bytes, so the overlay merge order never
// affects content.
func (s *Session) ParallelFork() *Session {
	// The fork counts itself in its own private stats — incrementing
	// the parent's here would race with sibling forks created by
	// concurrent pool workers; Absorb folds the count in after the
	// join.
	return &Session{
		img:    s.img,
		isa:    s.isa,
		opts:   s.opts,
		cache:  newDecodeCache(nil),
		warm:   s.cache,
		stats:  &Stats{Forks: 1},
		owners: s.owners,
	}
}

// Absorb folds a ParallelFork's private decode overlay and counters
// back into the session after the fork's concurrent phase has joined.
// The fork's memory high-water mark folds by max, as in Stats.Add.
func (s *Session) Absorb(f *Session) {
	s.cache.absorb(f.cache)
	s.stats.Forks += f.stats.Forks
	s.stats.InstsDecoded += f.stats.InstsDecoded
	s.stats.InstsReused += f.stats.InstsReused
	s.stats.Probes += f.stats.Probes
	s.stats.FixedPointPasses += f.stats.FixedPointPasses
	if f.stats.PeakAuxBytes > s.stats.PeakAuxBytes {
		s.stats.PeakAuxBytes = f.stats.PeakAuxBytes
	}
}

// SetJobs does nothing: committed passes always run the sequential
// fixed point.
//
// Deprecated: parallelism within one binary lives in the callers
// (ParallelFork probes, per-FDE precompute, data-index chunks).
func (s *Session) SetJobs(int) {}

// Result returns the current committed result (nil before the first
// Extend/Rerun).
func (s *Session) Result() *Result { return s.res }

// Seeds returns the committed seed list in submission order.
func (s *Session) Seeds() []uint64 { return append([]uint64(nil), s.seeds...) }

// Stats returns a snapshot of the session's counters (shared with its
// forks).
func (s *Session) Stats() Stats { return *s.stats }

// Extend appends newSeeds to the committed seed list and re-analyzes,
// reusing every already-decoded instruction. The result is
// byte-identical to Recursive(img, allSeedsSoFar, opts).
func (s *Session) Extend(newSeeds []uint64) *Result {
	s.stats.Extends++
	s.seeds = append(s.seeds, newSeeds...)
	s.res = s.execCommitted(s.seeds, s.opts)
	return s.res
}

// Retract removes the given seeds from the committed list (preserving
// the order of the remainder) and re-analyzes — the §V-B CFI-error
// recovery, which must drop the reachability contribution of removed
// FDE starts without paying a cold resweep.
func (s *Session) Retract(remove []uint64) *Result {
	s.stats.Retracts++
	drop := make(map[uint64]bool, len(remove))
	for _, a := range remove {
		drop[a] = true
	}
	kept := s.seeds[:0]
	for _, a := range s.seeds {
		if !drop[a] {
			kept = append(kept, a)
		}
	}
	s.seeds = kept
	s.res = s.execCommitted(s.seeds, s.opts)
	return s.res
}

// Rerun replaces the committed seed list wholesale and re-analyzes.
// Callers that rebuild their seed list each round (the baseline tool
// pipelines) use it to keep exact scratch seed order while still
// reusing the decode cache.
func (s *Session) Rerun(seeds []uint64) *Result {
	s.stats.Reruns++
	s.seeds = append(s.seeds[:0:0], seeds...)
	s.res = s.execCommitted(s.seeds, s.opts)
	return s.res
}

// execCommitted runs exec with the pass observer armed. Only committed
// seed-set updates report; probes (including probes issued between
// committed calls) stay silent.
func (s *Session) execCommitted(seeds []uint64, opts Options) *Result {
	s.observing = true
	res := s.exec(seeds, opts)
	s.observing = false
	return res
}

// Probe runs a one-shot walk from seeds under opts without touching
// the committed seed list or result and without notifying the
// observer. Candidate validation calls it directly for speculative
// decodes; the decodes land in the shared cache.
func (s *Session) Probe(seeds []uint64, opts Options) *Result {
	s.stats.Probes++
	return s.exec(seeds, opts)
}

// exec runs the full Recursive fixed point from the given seeds with
// cached decoding. Knowledge always restarts from empty so the
// iteration trajectory — and therefore the result — matches a
// from-scratch run exactly.
func (s *Session) exec(seeds []uint64, opts Options) *Result {
	nonRet := map[uint64]bool{}
	condNonRet := map[uint64]bool{}
	var res *Result
	for iter := 0; iter < 6; iter++ {
		res = s.pass(seeds, opts, nonRet, condNonRet, nil)
		s.notePassMem(res)
		if s.observing && s.obs != nil {
			s.obs.OnPass(nonRet, condNonRet, res)
		}
		if !opts.NonReturning {
			return res
		}
		newNonRet, newCond := inferNonReturning(res)
		if setsEqual(newNonRet, nonRet) && setsEqual(newCond, condNonRet) {
			break
		}
		nonRet, condNonRet = newNonRet, newCond
	}
	res.NonRet = nonRet
	res.CondNonRet = condNonRet
	return res
}

// decode memoizes the pure part of instruction decoding: the section
// window fetch, the backend ISA decode at addr, and the per-instruction
// facts the walk derives from it.
func (s *Session) decode(addr uint64) decodeEntry {
	// Warm first: a parallel fork finds most decodes in its parent's
	// cache.
	if e, ok := s.warm.get(addr); ok {
		s.stats.InstsReused++
		return e
	}
	if e, ok := s.cache.get(addr); ok {
		s.stats.InstsReused++
		return e
	}
	s.stats.InstsDecoded++
	var e decodeEntry
	window, ok := s.img.BytesToSectionEnd(addr)
	if !ok {
		e = decodeEntry{kind: decodeNoWindow}
	} else if in, err := s.isa.Decode(window, addr); err != nil {
		e = decodeEntry{kind: decodeBad}
	} else {
		inst := in
		e = decodeEntry{inst: &inst, kind: decodeOK, rdi: s.isa.GateEffect(&inst)}
		for _, c := range inst.Constants() {
			if s.img.IsMapped(c) {
				e.consts = append(e.consts, c)
			}
		}
	}
	s.cache.put(addr, e)
	return e
}

// pass performs one full recursive descent with the current
// non-return knowledge, identical to the historical from-scratch pass
// except that instruction decodes come from the session cache.
//
// A non-nil scope confines the walk to one byte range (delta replay's
// range-local walk, WalkLocal): pushes outside it are recorded in Refs
// but not walked, and a fall-through run that leaves the range or an
// instruction that straddles its end marks the result escaped, since
// the global walk would go on into the neighbour's bytes there.
func (s *Session) pass(seeds []uint64, opts Options,
	nonRet, condNonRet map[uint64]bool, scope *FuncRange) *Result {

	s.stats.FixedPointPasses++
	img := s.img
	res := &Result{
		isa:        s.isa,
		Insts:      make(map[uint64]*arch.Inst),
		Funcs:      make(map[uint64]bool),
		Refs:       make(map[uint64][]uint64),
		Constants:  make(map[uint64]bool),
		NonRet:     nonRet,
		CondNonRet: condNonRet,
		JTTargets:  make(map[uint64][]uint64),
		TableBases: make(map[uint64]bool),
		// Capped and scoped walks are bounded: pooled scratch.
		owner: s.owners.newOwner(opts.MaxInsts > 0 || scope != nil),
	}
	defer res.owner.release()

	type workItem struct {
		addr uint64
		rdi  rdiState
	}
	var work []workItem
	pushed := map[uint64]bool{}
	push := func(addr uint64, rdi rdiState) {
		if !pushed[addr] && (scope == nil || scope.contains(addr)) {
			pushed[addr] = true
			work = append(work, workItem{addr, rdi})
		}
	}
	addRef := func(target, from uint64) {
		res.Refs[target] = append(res.Refs[target], from)
	}
	strictErr := func(kind ErrorKind, at uint64) {
		if opts.Strict {
			res.Errors = append(res.Errors, Error{Kind: kind, At: at})
		}
	}
	// intoFunctionMiddle checks the §IV-E rule (iii).
	intoFunctionMiddle := func(t uint64) bool {
		for _, r := range opts.KnownRanges {
			if t > r.Start && t < r.End {
				return true
			}
		}
		return false
	}

	for _, sd := range seeds {
		res.Funcs[sd] = true
		push(sd, rdiUnknown)
	}

	for len(work) > 0 {
		item := work[len(work)-1]
		work = work[:len(work)-1]
		addr := item.addr
		rdi := item.rdi

		for {
			if opts.MaxInsts > 0 && len(res.Insts) >= opts.MaxInsts {
				return res
			}
			if scope != nil && !scope.contains(addr) {
				res.escaped = true
				break
			}
			if _, seen := res.Insts[addr]; seen {
				break
			}
			if owner, mid := res.owner.get(addr); mid && owner != addr {
				// The walk's only order-sensitive rule: record that it
				// fired so delta re-analysis refuses to reuse this walk.
				res.sawMid = true
				strictErr(ErrMidInstruction, addr)
				break
			}
			if !img.IsExec(addr) {
				strictErr(ErrOutOfSection, addr)
				break
			}
			e := s.decode(addr)
			if e.kind == decodeNoWindow {
				strictErr(ErrOutOfSection, addr)
				break
			}
			if e.kind == decodeBad {
				strictErr(ErrInvalidOpcode, addr)
				break
			}
			in := e.inst
			if scope != nil && in.Next() > scope.End {
				res.escaped = true
				break
			}
			res.Insts[addr] = in
			res.owner.setRange(addr, int(in.Len))
			for _, c := range e.consts {
				res.Constants[c] = true
			}

			// Track the first-argument state for the error/error_at_line
			// call-site slice (memoized per instruction). Calls keep the
			// state: the clobber applies after the call-site gate below
			// consumes it.
			switch e.rdi {
			case arch.GateSetUnknown:
				rdi = rdiUnknown
			case arch.GateSetZero:
				rdi = rdiZero
			case arch.GateSetNonZero:
				rdi = rdiNonZero
			}

			switch in.Op {
			case arch.OpCall:
				t := in.Target
				if !img.IsExec(t) {
					strictErr(ErrOutOfSection, in.Addr)
					break
				}
				if intoFunctionMiddle(t) {
					strictErr(ErrIntoFunction, in.Addr)
				}
				addRef(t, in.Addr)
				res.Funcs[t] = true
				push(t, rdiUnknown)
				// Fall through only when the callee can return here.
				if opts.NonReturning {
					if nonRet[t] {
						goto pathDone
					}
					if condNonRet[t] && rdi != rdiZero {
						goto pathDone
					}
				}
				rdi = rdiUnknown // the callee clobbers rdi
				addr = in.Next()
				continue
			case arch.OpJcc:
				t := in.Target
				if img.IsExec(t) {
					if intoFunctionMiddle(t) {
						strictErr(ErrIntoFunction, in.Addr)
					}
					addRef(t, in.Addr)
					push(t, rdiUnknown)
				} else {
					strictErr(ErrOutOfSection, in.Addr)
				}
				addr = in.Next()
				continue
			case arch.OpJmp:
				t := in.Target
				if img.IsExec(t) {
					if intoFunctionMiddle(t) {
						strictErr(ErrIntoFunction, in.Addr)
					}
					addRef(t, in.Addr)
					push(t, rdiUnknown)
				} else {
					strictErr(ErrOutOfSection, in.Addr)
				}
				goto pathDone
			case arch.OpJmpInd:
				if opts.ResolveJumpTables {
					targets := s.isa.ResolveJumpTable(jtCtx{img: img, isa: s.isa, res: res}, in, maxJumpTableEntries)
					if len(targets) > 0 {
						res.JTTargets[in.Addr] = targets
					}
					for _, t := range targets {
						addRef(t, in.Addr)
						push(t, rdiUnknown)
					}
				}
				goto pathDone
			case arch.OpRet, arch.OpUd2, arch.OpHlt, arch.OpInt3:
				goto pathDone
			}
			addr = in.Next()
		}
	pathDone:
	}
	return res
}
