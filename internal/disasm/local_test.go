package disasm

import (
	"reflect"
	"testing"

	"fetch/internal/synth"
)

// TestWalkLocalRecordsAbsTableBase pins that the range-local walk
// reports an absolute jump table's base, as the global pass does: the
// x86-64 backend records it itself.
func TestWalkLocalRecordsAbsTableBase(t *testing.T) {
	img, start := tableImage(t, 2, []uint64{0, 0, 0}, true)
	sess := NewSession(img, defaultOpts())
	rng := FuncRange{Start: start, End: img.Sections[0].End()}
	facts := sess.WalkLocal(rng, []uint64{start}, nil, nil).Facts()
	if facts.Flags != 0 {
		t.Fatalf("local walk flags = %v", facts.Flags)
	}
	if want := []uint64{0x402000}; !reflect.DeepEqual(facts.TableBases, want) {
		t.Fatalf("local TableBases = %#x, want %#x", facts.TableBases, want)
	}
	global := Recursive(img, []uint64{start}, defaultOpts())
	if !global.TableBases[0x402000] || len(global.TableBases) != 1 {
		t.Fatalf("global TableBases = %v", global.TableBases)
	}
}

// enteredFromOutside reports whether the committed walk can arrive in
// rng other than at its start from an instruction outside it: a
// reference into the interior, an instruction straddling into it, or
// a run falling through into it.
func enteredFromOutside(res *Result, rng FuncRange) bool {
	for t, froms := range res.Refs {
		if !rng.contains(t) || t == rng.Start {
			continue
		}
		for _, from := range froms {
			if !rng.contains(from) {
				return true
			}
		}
	}
	for a, in := range res.Insts {
		if rng.contains(a) {
			continue
		}
		next := in.Next()
		if next > rng.Start && next < rng.End {
			return true
		}
		if next == rng.Start && !in.Terminates() && !in.IsBranch() {
			return true
		}
	}
	return false
}

// TestWalkLocalMatchesGlobalPass is the scoped walk's agreement
// property: for every FDE range the committed walk enters only at its
// start and whose scoped walk reports no flags, the scoped walk under
// the final non-return environment decodes exactly the committed
// instructions inside the range, and the entry's EntryReturns/CondFacts
// verdicts equal its committed NonRet/CondNonRet.
func TestWalkLocalMatchesGlobalPass(t *testing.T) {
	for _, isa := range []string{"x64", "a64"} {
		for seed := int64(0); seed < 3; seed++ {
			im, _, sec := buildBinary(t, 140+seed, func(c *synth.Config) {
				c.Arch = isa
				c.IndirectOnlyRate = 0.05
			})
			sess := NewSession(im, defaultOpts())
			res := sess.Extend(sec.FunctionStarts())
			if res.SawMid() {
				t.Fatalf("%s/%d: committed walk is order-sensitive", isa, seed)
			}
			global := res.InstFacts()
			compared, verdicts := 0, 0
			for _, f := range sec.FDEs {
				rng := FuncRange{Start: f.PCBegin, End: f.End()}
				if enteredFromOutside(res, rng) {
					continue
				}
				lw := sess.WalkLocal(rng, []uint64{rng.Start}, res.NonRet, res.CondNonRet)
				if lw.Facts().Flags != 0 {
					continue
				}
				compared++
				var want []InstFact
				for _, in := range global {
					if rng.contains(in.Addr) {
						want = append(want, in)
					}
				}
				if got := lw.Facts().Insts; !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%d range %#x: scoped walk decoded %d instructions, global %d",
						isa, seed, rng.Start, len(got), len(want))
					continue
				}
				returns, _, ok := lw.EntryReturns(rng.Start, res.NonRet, res.Funcs)
				if !ok {
					continue
				}
				verdicts++
				if returns == res.NonRet[rng.Start] {
					t.Errorf("%s/%d range %#x: EntryReturns = %v, committed NonRet = %v",
						isa, seed, rng.Start, returns, res.NonRet[rng.Start])
				}
				cond, _, ok := lw.CondFacts(rng.Start, res.NonRet, res.Funcs)
				if ok && (returns && cond) != res.CondNonRet[rng.Start] {
					t.Errorf("%s/%d range %#x: CondFacts = %v, committed CondNonRet = %v",
						isa, seed, rng.Start, cond, res.CondNonRet[rng.Start])
				}
			}
			if compared < len(sec.FDEs)/2 || verdicts < compared/2 {
				t.Errorf("%s/%d: compared %d ranges and %d verdicts of %d FDEs; the property ran vacuously",
					isa, seed, compared, verdicts, len(sec.FDEs))
			}
			t.Logf("%s/%d: %d/%d ranges compared, %d verdicts", isa, seed, compared, len(sec.FDEs), verdicts)
		}
	}
}
