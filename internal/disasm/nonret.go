package disasm

import (
	"fetch/internal/arch"
)

// verdictEnv is what the non-return verdict walks (funcReturns,
// isCondNonRet) know about functions other than the one they walk.
// The global inference passes the pass's own function set and its
// current non-returning set; delta replay's range-local evaluation
// (EntryReturns, CondFacts) passes a recorded function set and one
// enumerated environment, plus a scope.
type verdictEnv struct {
	// funcs is the function-start set: a jmp to a member is a tail
	// edge, and a call to a non-member never returns.
	funcs map[uint64]bool
	// nonRet holds the functions known never to return.
	nonRet map[uint64]bool
	// scope, when set, confines the walk to one range: arriving at an
	// undecoded address outside it sets escaped and ends the walk,
	// because the answer there depends on bytes outside the range.
	scope *FuncRange
	// queried collects, in scoped walks only, every target whose
	// function-set membership or verdict the walk consulted.
	queried []uint64
	// escaped records that a scoped walk reached an undecoded address
	// outside its scope.
	escaped bool
}

// query notes that the walk's outcome consulted t.
func (e *verdictEnv) query(t uint64) {
	if e.scope != nil {
		e.queried = append(e.queried, t)
	}
}

// returns reports whether a call to t returns: t must be a detected
// function not known to be non-returning.
func (e *verdictEnv) returns(t uint64) bool {
	e.query(t)
	return e.funcs[t] && !e.nonRet[t]
}

// isFunc reports whether t is a detected function start.
func (e *verdictEnv) isFunc(t uint64) bool {
	e.query(t)
	return e.funcs[t]
}

// inst returns the decoded instruction at a; a miss outside the scope
// marks the walk escaped.
func (e *verdictEnv) inst(res *Result, a uint64) (*arch.Inst, bool) {
	in, ok := res.Insts[a]
	if !ok && e.scope != nil && !e.scope.contains(a) {
		e.escaped = true
	}
	return in, ok
}

// inferNonReturning computes the non-returning function set over a
// disassembly result by monotone fixed point: a function returns when
// some intra-procedural path reaches a ret (call fall-through is only
// taken past callees already known to return; tail jumps delegate to
// the target). Functions never proven returning are non-returning —
// the conservative direction for stopping fall-through decode.
//
// It additionally classifies error/error_at_line-style functions
// (§IV-C): functions that do return, but whose body contains an entry
// test of the first argument guarding a path into a non-returning call.
func inferNonReturning(res *Result) (map[uint64]bool, map[uint64]bool) {
	funcs := res.SortedFuncs()
	// Optimistic greatest fixed point, as in DYNINST: every function
	// is presumed returning until no path to a ret remains under the
	// current knowledge. (A pessimistic least fixed point would
	// deadlock on mutual recursion, wrongly marking the whole cycle
	// non-returning.)
	env := &verdictEnv{funcs: res.Funcs, nonRet: map[uint64]bool{}}
	for changed := true; changed; {
		changed = false
		for _, f := range funcs {
			if env.nonRet[f] {
				continue
			}
			if !funcReturns(res, f, env) {
				env.nonRet[f] = true
				changed = true
			}
		}
	}
	cond := map[uint64]bool{}
	for _, f := range funcs {
		if !env.nonRet[f] && isCondNonRet(res, f, env) {
			cond[f] = true
		}
	}
	return env.nonRet, cond
}

// funcReturns walks the intra-procedural instructions of f (as decoded
// so far) looking for a reachable ret, delegating through tail jumps.
func funcReturns(res *Result, f uint64, env *verdictEnv) bool {
	seen := map[uint64]bool{}
	stack := []uint64{f}
	for len(stack) > 0 {
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for {
			if seen[a] {
				break
			}
			in, ok := env.inst(res, a)
			if !ok {
				if env.escaped {
					return false
				}
				break
			}
			seen[a] = true
			switch in.Op {
			case arch.OpRet:
				return true
			case arch.OpJcc:
				stack = append(stack, in.Target)
				a = in.Next()
				continue
			case arch.OpJmp:
				t := in.Target
				if env.isFunc(t) && t != f {
					// Tail edge: f returns iff the target does.
					if env.returns(t) {
						return true
					}
				} else {
					stack = append(stack, t)
				}
			case arch.OpJmpInd:
				for _, t := range res.JTTargets[a] {
					stack = append(stack, t)
				}
			case arch.OpCall:
				if env.returns(in.Target) {
					a = in.Next()
					continue
				}
				// Callee not (yet) proven returning: stop this path;
				// the outer fixed point revisits when it flips.
			case arch.OpUd2, arch.OpHlt, arch.OpInt3:
				// Terminal.
			default:
				a = in.Next()
				continue
			}
			break
		}
	}
	return false
}

// isCondNonRet matches the error/error_at_line shape: an entry-block
// test of the first argument register, a returning path, and a path
// into a non-returning call.
func isCondNonRet(res *Result, f uint64, env *verdictEnv) bool {
	// Entry test within the first three instructions. A miss past a
	// scope's end does not escape: such a prefix has no call, and the
	// body walk below stops before the scope end or escapes itself.
	a := f
	gate := res.isa.GateReg()
	sawTest := false
	for k := 0; k < 3; k++ {
		in, ok := res.Insts[a]
		if !ok {
			return false
		}
		if arch.IsGateTest(in, gate) {
			sawTest = true
			break
		}
		if in.IsBranch() || in.IsCall() {
			return false
		}
		a = in.Next()
	}
	if !sawTest {
		return false
	}
	// A call into a non-returning function somewhere in the body.
	seen := map[uint64]bool{}
	stack := []uint64{f}
	for len(stack) > 0 {
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for {
			if seen[a] {
				break
			}
			in, ok := env.inst(res, a)
			if !ok {
				if env.escaped {
					return false
				}
				break
			}
			seen[a] = true
			if in.Op == arch.OpCall {
				env.query(in.Target)
				if env.nonRet[in.Target] {
					return true
				}
			}
			if in.Op == arch.OpJcc {
				stack = append(stack, in.Target)
				a = in.Next()
				continue
			}
			if in.Op == arch.OpJmp {
				if !env.isFunc(in.Target) {
					stack = append(stack, in.Target)
				}
				break
			}
			if in.Terminates() || in.Op == arch.OpInt3 {
				break
			}
			a = in.Next()
			continue
		}
	}
	return false
}
