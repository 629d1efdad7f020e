package fetch

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// codecSample produces a deterministic analyzed Result: a generated
// binary with every correction class populated, wall times zeroed
// (the part of the run trace a sequential, uncached analysis does not
// reproduce).
func codecSample(t testing.TB) *Result {
	t.Helper()
	raw, _, err := GenerateSample(SampleConfig{Seed: 42, NumFuncs: 120, Stripped: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(raw)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Stats.Passes {
		res.Stats.Passes[i].Wall = 0
	}
	return res
}

func TestCodecRoundTripExact(t *testing.T) {
	res := codecSample(t)
	blob, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeResult(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, back) {
		t.Fatalf("round trip not exact:\n got %+v\nwant %+v", back, res)
	}
	// Determinism: encoding the decoded copy reproduces the bytes.
	blob2, err := EncodeResult(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(blob2) {
		t.Fatal("re-encoding is not byte-identical")
	}
}

// TestCodecRoundTripPreservesNilVersusEmpty pins the subtlest part of
// the exactness contract: null and [] are different values.
func TestCodecRoundTripPreservesNilVersusEmpty(t *testing.T) {
	cases := []*Result{
		{}, // all nil
		{
			FunctionStarts: []uint64{},
			MergedParts:    map[uint64]uint64{},
			Stats:          Stats{Run: Run{Passes: []PassStat{}}},
		},
		{
			FunctionStarts: []uint64{0x401000, 1<<64 - 1},
			MergedParts:    map[uint64]uint64{0x1000: 0x2000, 1<<63 + 5: 7},
			Stats: Stats{
				Run:           Run{Passes: []PassStat{{Name: "fde", Wall: 123 * time.Microsecond}}},
				XrefConverged: true,
			},
		},
		fullStats(t),
	}
	wantKeys := apiStatsKeys(t)
	for i, res := range cases {
		blob, err := EncodeResult(res)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		back, err := DecodeResult(blob)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(res, back) {
			t.Fatalf("case %d: round trip changed value:\n got %#v\nwant %#v", i, back, res)
		}
		var doc struct {
			Stats map[string]json.RawMessage `json:"stats"`
		}
		if err := json.Unmarshal(blob, &doc); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		for key := range doc.Stats {
			if !wantKeys[key] {
				t.Errorf("case %d: encoded stats key %q is not in the docs/API.md table", i, key)
			}
		}
		for key := range wantKeys {
			if _, ok := doc.Stats[key]; !ok {
				t.Errorf("case %d: docs/API.md key stats.%s missing from the encoding", i, key)
			}
		}
	}
}

// fullStats returns a Result whose Stats sets every field, Run's
// included, to a distinct non-zero value, so a missing, mistyped or
// duplicated json tag changes the round trip or the key set. It fails
// if a field was added to Stats or Run without being set here.
func fullStats(t *testing.T) *Result {
	t.Helper()
	res := &Result{Stats: Stats{
		ColdStarts:     1,
		Extends:        2,
		Retracts:       3,
		XrefIterations: 4,
		XrefConverged:  true,
		Truncated:      true,
		Run: Run{
			Passes:              []PassStat{{Name: "fde", Wall: 5}, {Name: "xref", Wall: 6 * time.Millisecond}},
			InstsDecoded:        7,
			InstsReused:         8,
			Forks:               9,
			Probes:              10,
			Jobs:                11,
			DeltaPath:           true,
			DeltaDirtyRanges:    12,
			DeltaTotalRanges:    13,
			DeltaFallbackReason: "residue changed",
			PeakImageBytes:      14,
			PeakAuxBytes:        15,
		},
	}}
	var check func(v reflect.Value, path string)
	check = func(v reflect.Value, path string) {
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if f.IsZero() {
				t.Fatalf("fullStats leaves %s%s zero", path, v.Type().Field(i).Name)
			}
			if v.Type().Field(i).Anonymous {
				check(f, path+v.Type().Field(i).Name+".")
			}
		}
	}
	check(reflect.ValueOf(res.Stats), "Stats.")
	return res
}

// apiStatsKeys returns the stats keys the docs/API.md field table
// documents: every backquoted stats.<key> (or bare <key> continuing
// one) in the first cell of a "| `stats." row.
func apiStatsKeys(t *testing.T) map[string]bool {
	t.Helper()
	doc, err := os.ReadFile(filepath.Join("docs", "API.md"))
	if err != nil {
		t.Fatal(err)
	}
	code := regexp.MustCompile("`([^`]+)`")
	keys := make(map[string]bool)
	for _, line := range strings.Split(string(doc), "\n") {
		if !strings.HasPrefix(line, "| `stats.") {
			continue
		}
		cell := strings.Split(line, "|")[1]
		for _, m := range code.FindAllStringSubmatch(cell, -1) {
			keys[strings.TrimSuffix(strings.TrimPrefix(m[1], "stats."), "[]")] = true
		}
	}
	if len(keys) == 0 {
		t.Fatal("docs/API.md: no stats rows in the field table")
	}
	return keys
}

func TestDecodeRejectsWrongSchemaAndUnknownFields(t *testing.T) {
	res := codecSample(t)
	blob, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}

	schema := fmt.Sprintf(`"schema": %d`, ResultSchemaVersion)
	wrongSchema := strings.Replace(string(blob), schema, `"schema": 999`, 1)
	if _, err := DecodeResult([]byte(wrongSchema)); err == nil ||
		!strings.Contains(err.Error(), "schema version") {
		t.Fatalf("wrong schema: %v", err)
	}

	unknown := strings.Replace(string(blob), schema, schema+`, "surprise": 1`, 1)
	if _, err := DecodeResult([]byte(unknown)); err == nil {
		t.Fatal("unknown field accepted")
	}

	if _, err := DecodeResult([]byte("{")); err == nil {
		t.Fatal("truncated JSON accepted")
	}
	// Trailing data is rejected whichever layer sees it first (the
	// schema probe's strict Unmarshal or the post-decode EOF check).
	trailing := append(append([]byte(nil), blob...), []byte("{"+schema+"}")...)
	if _, err := DecodeResult(trailing); err == nil {
		t.Fatal("concatenated documents accepted")
	}
	if _, err := DecodeResult([]byte("{" + schema + `, "fde_starts": ["zz"]}`)); err == nil {
		t.Fatal("malformed address accepted")
	}
}

// TestCodecGolden pins the serialized schema byte-for-byte: any codec
// change that alters the wire form fails here and must come with a
// ResultSchemaVersion bump plus a docs/API.md update. Refresh with
// go test -run TestCodecGolden -update ./...
func TestCodecGolden(t *testing.T) {
	res := codecSample(t)
	blob, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "result_v7.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if string(blob) != string(want) {
		t.Fatalf("encoding drifted from %s; if intentional, bump ResultSchemaVersion, update docs/API.md, and refresh with -update", golden)
	}
	back, err := DecodeResult(want)
	if err != nil {
		t.Fatalf("golden does not decode: %v", err)
	}
	if !reflect.DeepEqual(res, back) {
		t.Fatal("golden decodes to a different result")
	}
}

// TestSummaryNamesMatchSchema enforces the no-drift contract between
// the CLI's formatting helper and the JSON codec in both directions:
// every non-derived SummaryLine name must resolve to a path in the
// encoded document, and every key under stats must have a verbose
// summary line (passes through its stats.passes.<name>.wall_ns lines).
func TestSummaryNamesMatchSchema(t *testing.T) {
	res := codecSample(t)
	blob, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	resolve := func(path string) bool {
		cur := any(doc)
		for _, seg := range strings.Split(path, ".") {
			switch node := cur.(type) {
			case map[string]any:
				next, ok := node[seg]
				if !ok {
					return false
				}
				cur = next
			case []any:
				// A segment under an array names an element by its
				// "name" field (the passes list).
				var found any
				for _, el := range node {
					if m, ok := el.(map[string]any); ok && m["name"] == seg {
						found = m
						break
					}
				}
				if found == nil {
					return false
				}
				cur = found
			default:
				return false
			}
		}
		return true
	}
	for _, line := range Summarize(res, true) {
		if strings.HasPrefix(line.Name, "derived.") {
			continue
		}
		if !resolve(line.Name) {
			t.Errorf("summary line %q has no corresponding schema path", line.Name)
		}
	}

	names := make(map[string]bool)
	for _, line := range Summarize(res, true) {
		names[line.Name] = true
	}
	for key, v := range doc["stats"].(map[string]any) {
		if key != "passes" {
			if !names["stats."+key] {
				t.Errorf("schema key stats.%s has no verbose summary line", key)
			}
			continue
		}
		passes, _ := v.([]any)
		if len(passes) == 0 {
			t.Error("codec sample ran no passes; the passes lines go unchecked")
		}
		for _, p := range passes {
			name := fmt.Sprintf("stats.passes.%v.wall_ns", p.(map[string]any)["name"])
			if !names[name] {
				t.Errorf("schema pass %s has no verbose summary line", name)
			}
		}
	}
}
