package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"fetch/internal/disasm"
	"fetch/internal/ehframe"
	"fetch/internal/elfx"
	"fetch/internal/tailcall"
	"fetch/internal/xref"
)

// span is one timed call into a layer. Spans of one analysis share a
// root; Parent is -1 for a root.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory; write dumps them once the run is over.
// It is used from one goroutine only.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span as a child of the innermost open one.
func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: time.Since(t.t0)})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) time.Duration {
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[id]
	s.End = time.Since(t.t0)
	return s.End - s.Start
}

// selfByLayer sums, for every span in the subtree of root, its
// duration minus the time its child spans cover, keyed by layer (the
// span name up to the first dot). Children of one span never overlap:
// every span is opened and closed on the one tracing goroutine.
func (t *tracer) selfByLayer(root int) map[string]time.Duration {
	child := map[int]time.Duration{}
	in := map[int]bool{root: true}
	for i := root + 1; i < len(t.spans); i++ {
		s := t.spans[i]
		if !in[s.Parent] {
			continue
		}
		in[i] = true
		child[s.Parent] += s.End - s.Start
	}
	out := map[string]time.Duration{}
	for id := range in {
		s := t.spans[id]
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += s.End - s.Start - child[id]
	}
	return out
}

// write stores every span as JSON.
func (t *tracer) write(path string) error {
	blob, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// layerCounts are the work counters the re-driven pipeline collects at
// the layer boundaries.
type layerCounts struct {
	fdes                             int
	materialized                     int64
	instsDecoded, instsReused        int64
	fixedPointPasses                 int
	peakAux                          int64
	xrefRounds, candidates, accepted int
	xrefProbes                       int
	cfiRemoved, merged, skipped      int
	res                              *disasm.Result
	img                              *elfx.Image
	sec                              *ehframe.Section
}

// xrefIterBound is core.DefaultXrefIterBound.
const xrefIterBound = 64

// redrive runs the FETCH pipeline through each layer's exported entry
// points, in the order of core.Passes, with a span around every call:
// elfx load, .eh_frame decode, the recursive sweep, pointer-detection
// rounds, Algorithm 1, and the §V-B retract and re-detection. load
// opens the image the way the measured entry point does (file-backed
// or from memory). It returns the detected starts in address order.
func redrive(tr *tracer, load func() (*elfx.Image, error), jobs int) ([]uint64, *layerCounts, error) {
	lc := &layerCounts{}
	id := tr.begin("elfx.load")
	img, err := load()
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	img = img.Strip()
	lc.img = img

	id = tr.begin("ehframe.decode")
	eh, ok := img.Section(".eh_frame")
	if !ok {
		tr.end(id)
		return nil, nil, fmt.Errorf("no .eh_frame section")
	}
	body, err := eh.BytesErr()
	if err != nil {
		tr.end(id)
		return nil, nil, err
	}
	sec, err := ehframe.Decode(body, eh.Addr)
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	lc.sec = sec
	lc.fdes = len(sec.FDEs)

	funcs := map[uint64]bool{}
	var fdeStarts []uint64
	for _, f := range sec.FDEs {
		if !funcs[f.PCBegin] {
			funcs[f.PCBegin] = true
			fdeStarts = append(fdeStarts, f.PCBegin)
		}
	}
	sort.Slice(fdeStarts, func(i, j int) bool { return fdeStarts[i] < fdeStarts[j] })

	id = tr.begin("disasm.extend")
	seeds := append([]uint64(nil), fdeStarts...)
	if img.IsExec(img.Entry) {
		seeds = append(seeds, img.Entry)
	}
	sess := disasm.NewSession(img, disasm.Options{ResolveJumpTables: true, NonReturning: true})
	sess.SetJobs(jobs)
	res := sess.Extend(seeds)
	tr.end(id)
	for f := range res.Funcs {
		funcs[f] = true
	}

	banned := map[uint64]bool{}
	id = tr.begin("xref.index")
	idx := xref.NewDataIndex(img, jobs)
	tr.end(id)
	// detect mirrors core's pointer-detection pass: rounds until one
	// accepts nothing, or until the pipeline's iteration bound.
	detect := func(exclude map[uint64]bool) {
		var known []disasm.FuncRange
		for _, f := range sec.FDEs {
			if !exclude[f.PCBegin] {
				known = append(known, disasm.FuncRange{Start: f.PCBegin, End: f.End()})
			}
		}
		opts := xref.Options{
			KnownRanges: known, Session: sess, Jobs: jobs, Index: idx,
			Observer: func(uint64, bool, *disasm.Result) { lc.candidates++ },
		}
		for round := 0; round < xrefIterBound; round++ {
			probes := sess.Stats().Probes
			id := tr.begin("xref.detect")
			newly := xref.Detect(img, sess.Result(), funcs, opts)
			tr.end(id)
			lc.xrefProbes += sess.Stats().Probes - probes
			lc.xrefRounds++
			if len(newly) == 0 {
				return
			}
			lc.accepted += len(newly)
			id = tr.begin("disasm.extend")
			res := sess.Extend(newly)
			tr.end(id)
			for f := range res.Funcs {
				if !banned[f] {
					funcs[f] = true
				}
			}
		}
	}
	detect(nil)

	id = tr.begin("tailcall.run")
	out := tailcall.Run(tailcall.Input{
		Img: img, Sec: sec, Res: sess.Result(), Funcs: funcs,
		DataRefCount: idx.Count, Sess: sess, Jobs: jobs,
	})
	tr.end(id)
	funcs = out.Funcs
	lc.cfiRemoved, lc.merged, lc.skipped = len(out.CFIErrRemoved), len(out.Merged), out.SkippedIncomplete
	for part := range out.Merged {
		banned[part] = true
	}
	for _, a := range out.CFIErrRemoved {
		banned[a] = true
	}
	if len(out.CFIErrRemoved) > 0 {
		exclude := map[uint64]bool{}
		for _, a := range out.CFIErrRemoved {
			exclude[a] = true
		}
		id = tr.begin("disasm.retract")
		sess.Retract(out.CFIErrRemoved)
		tr.end(id)
		detect(exclude)
	}

	st := sess.Stats()
	lc.instsDecoded, lc.instsReused = st.InstsDecoded, st.InstsReused
	lc.fixedPointPasses, lc.peakAux = st.FixedPointPasses, st.PeakAuxBytes
	lc.materialized = img.MemStats().MaterializedBytes
	lc.res = sess.Result()
	starts := make([]uint64, 0, len(funcs))
	for a := range funcs {
		starts = append(starts, a)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	return starts, lc, nil
}
