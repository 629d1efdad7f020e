package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"

	"fetch"
	"fetch/internal/elfx"
	"fetch/internal/groundtruth"
	"fetch/internal/realbin"
)

// pinsJSON pins every real input by content, and holds the
// precision/recall floors each analysis lane must keep. The floors are
// the values the first measured run of this benchmark produced.
//
//go:embed pins.json
var pinsJSON []byte

type pin struct {
	SHA256 string `json:"sha256"`
	Size   int64  `json:"size"`
}

type floor struct {
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
}

type pinFile struct {
	Inputs map[string]pin   `json:"inputs"`
	Floors map[string]floor `json:"floors"`
}

func loadPins() (*pinFile, error) {
	var p pinFile
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	for _, lane := range []string{"libc-fetch", "gobin-xref"} {
		if _, ok := p.Floors[lane]; !ok {
			return nil, fmt.Errorf("pins.json has no floors for %s", lane)
		}
	}
	return &p, nil
}

// libcPath is the one canonical real C input of libc-fetch.
const libcPath = "/usr/lib/x86_64-linux-gnu/libc.so.6"

// goTools are the Go toolchain tools gobin-xref analyzes: four of
// similar size (2.4-2.6 MB), so that one pass over them fits a run even
// on a slow host and the median does not depend on their order.
var goTools = []string{"addr2line", "buildid", "nm", "test2json"}

// binary is one analysis input with its ground truth.
type binary struct {
	name string
	// path, when set, is analyzed file-backed (fetch.AnalyzeFile);
	// otherwise data is analyzed from memory (fetch.Analyze).
	path  string
	data  []byte
	sum   [32]byte
	truth *groundtruth.Truth
}

// analyze runs the measured entry point with a result cache attached.
func (b *binary) analyze(c *fetch.Cache, opts ...fetch.Option) (*fetch.Result, bool, error) {
	if b.path != "" {
		return c.AnalyzeFile(b.path, opts...)
	}
	return c.Analyze(b.data, opts...)
}

// load opens the image the way the measured entry point does.
func (b *binary) load() (*elfx.Image, error) {
	if b.path != "" {
		return elfx.LoadELFFile(b.path)
	}
	return elfx.LoadELF(b.data)
}

// fingerprint hashes a real input and checks it against its pin:
// numbers measured on another input must not be compared, so a changed
// input is an error rather than a result.
func fingerprint(e *env, pins *pinFile, name string, data []byte) error {
	sum := sha256.Sum256(data)
	got := hex.EncodeToString(sum[:])
	fmt.Fprintf(e.log, "perfbench: input %s sha256=%s size=%d\n", name, got, len(data))
	want, ok := pins.Inputs[name]
	if !ok {
		return fmt.Errorf("input %s has no pin in pins.json", name)
	}
	if want.SHA256 != got || want.Size != int64(len(data)) {
		return fmt.Errorf("input %s is not the pinned one (want sha256=%s size=%d)", name, want.SHA256, want.Size)
	}
	return nil
}

// realInput reads an unstripped real binary and derives its truth.
func realInput(path string) ([]byte, *elfx.Image, *groundtruth.Truth, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, nil, err
	}
	im, err := elfx.LoadELF(data)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	truth, _ := realbin.DeriveTruth(im)
	if truth == nil {
		return nil, nil, nil, fmt.Errorf("%s: no ground truth", path)
	}
	return data, im, truth, nil
}

// libcInputs loads libc-fetch's input. It ignores the seed: the lane
// measures one canonical real C binary.
func libcInputs(e *env, pins *pinFile) ([]*binary, error) {
	data, _, truth, err := realInput(libcPath)
	if err != nil {
		return nil, err
	}
	if err := fingerprint(e, pins, "libc.so.6", data); err != nil {
		return nil, err
	}
	return []*binary{{name: "libc.so.6", path: libcPath, sum: sha256.Sum256(data), truth: truth}}, nil
}

// gobinInputs loads the Go tools in the order the seed draws,
// strips each in memory, injects the empty .eh_frame exactly as
// realbin.EvalImage does for Go internal linking, and serializes the
// result for fetch.Analyze.
func gobinInputs(e *env, pins *pinFile) ([]*binary, error) {
	dir := filepath.Join(runtime.GOROOT(), "pkg", "tool", "linux_amd64")
	order := rand.New(rand.NewSource(e.seed)).Perm(len(goTools))
	var out []*binary
	for _, i := range order {
		name := goTools[i]
		raw, im, truth, err := realInput(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		if err := fingerprint(e, pins, name, raw); err != nil {
			return nil, err
		}
		stripped := im.Strip()
		stripped.Sections = append([]*elfx.Section(nil), stripped.Sections...)
		if _, ok := stripped.Section(".eh_frame"); !ok {
			var top uint64
			for _, s := range stripped.Sections {
				top = max(top, s.End())
			}
			stripped.Sections = append(stripped.Sections, &elfx.Section{
				Name: ".eh_frame", Addr: (top + 0xFFF) &^ 0xFFF,
				Data: []byte{0, 0, 0, 0}, Flags: elfx.FlagAlloc,
			})
		}
		data, err := elfx.WriteELF(stripped)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, &binary{name: name, data: data, sum: sha256.Sum256(data), truth: truth})
	}
	names := make([]string, len(out))
	for i, b := range out {
		names[i] = b.name
	}
	fmt.Fprintf(e.log, "perfbench: drawn tools %v\n", names)
	return out, nil
}

// smokeInputs loads the committed real binaries of testdata/realbin,
// analyzed from memory; the smoke workloads check the benchmark itself,
// so they are not pinned.
func smokeInputs(e *env) ([]*binary, error) {
	paths, err := filepath.Glob(filepath.Join(e.root, "testdata", "realbin", "*.bin"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no testdata/realbin/*.bin under %s", e.root)
	}
	var out []*binary
	for _, p := range paths {
		data, _, truth, err := realInput(p)
		if err != nil {
			return nil, err
		}
		out = append(out, &binary{name: filepath.Base(p), data: data, sum: sha256.Sum256(data), truth: truth})
	}
	return out, nil
}
