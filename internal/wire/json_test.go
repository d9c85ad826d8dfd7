package wire

import (
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

func parseOK(t *testing.T, body string) *Request {
	t.Helper()
	var req Request
	if err := req.DecodeJSON([]byte(body)); err != nil {
		t.Fatalf("parse %q: %v", body, err)
	}
	return &req
}

func TestParseSingle(t *testing.T) {
	req := parseOK(t, `{"signature":[1.5, -2, 3e2]}`)
	if !req.Single || req.Rows() != 1 || req.Bucket != 0 {
		t.Fatalf("parsed: %+v", req)
	}
	row := req.Row(0)
	if len(row) != 3 || row[0] != 1.5 || row[1] != -2 || row[2] != 300 {
		t.Fatalf("row: %v", row)
	}
}

func TestParseBatchWithBucketAndTemplate(t *testing.T) {
	req := parseOK(t, `{"template":"cassandra","bucket": 3, "signatures": [[1,2],[3,4],[5,6]]}`)
	if req.Single || req.Rows() != 3 || req.Bucket != 3 {
		t.Fatalf("parsed: %+v", req)
	}
	if string(req.Template) != "cassandra" {
		t.Fatalf("template: %q", req.Template)
	}
	if r := req.Row(1); r[0] != 3 || r[1] != 4 {
		t.Fatalf("row 1: %v", r)
	}
	if r := req.Row(2); r[0] != 5 || r[1] != 6 {
		t.Fatalf("row 2: %v", r)
	}
}

func TestParseUnknownKeysSkipped(t *testing.T) {
	req := parseOK(t, `{"client":"vm-007","nested":{"a":[1,{"b":"}"}]},"flag":true,"none":null,"signature":[7],"extra":-1.5e-2}`)
	if req.Rows() != 1 || req.Row(0)[0] != 7 {
		t.Fatalf("parsed: %+v", req)
	}
}

func TestParseReuseResets(t *testing.T) {
	var req Request
	if err := req.DecodeJSON([]byte(`{"template":"x","signatures":[[1,2],[3,4]],"bucket":2}`)); err != nil {
		t.Fatal(err)
	}
	if err := req.DecodeJSON([]byte(`{"signature":[9]}`)); err != nil {
		t.Fatal(err)
	}
	if req.Rows() != 1 || req.Row(0)[0] != 9 || req.Bucket != 0 || len(req.Template) != 0 {
		t.Fatalf("stale state after reuse: %+v", req)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`[]`,
		`{}`,
		`{"signature":}`,
		`{"signature":[1,]}`,
		`{"signature":[1`,
		`{"signature":[1],"signatures":[[2]]}`,
		`{"signatures":[],"signature":[1]}`, // empty batch must not defeat the exclusivity guard
		`{"signature":[1],"signature":[2]}`,
		`{"signatures":[]}`,
		`{"signatures":[[1],[2]`,
		`{"bucket":-1,"signature":[1]}`,
		`{"bucket":1.5,"signature":[1]}`,
		`{"bucket":"zero","signature":[1]}`,
		`{"template":42,"signature":[1]}`,
		`{"signature":[1e]}`,
		`{"signature":[--1]}`,
		`{"signature" [1]}`,
		`{"x":truu,"signature":[1]}`, // malformed literal must not realign on the comma
		`{"x":t,"signature":[1]}`,
		`{"x":nul,"signature":[1]}`,
	}
	var req Request
	for _, b := range bad {
		if err := req.DecodeJSON([]byte(b)); err == nil {
			t.Errorf("parse %q: expected error", b)
		}
	}
}

// TestJSONDecodersRejectNonJSON holds every JSON decoder to RFC 8259:
// a body accepted by the decision or get/put vocabulary is valid JSON,
// including the values it skips under unknown keys.
func TestJSONDecodersRejectNonJSON(t *testing.T) {
	skipped := []string{
		`[}]`, `{]}`, `[1 2 3]`, `{"a" 1}`, `{"a":1,}`, `[1,]`, `{1:2}`, `[[]`,
		`"\q"`, `"\u12G4"`, "\"tab\there\"", `tru`, `-`, `01`,
	}
	numbers := []string{`.5,1.`, `1.`, `.5`, `01`, `-`, `+1`, `1e+`, `1.e5`, `0x10`, `Infinity`}
	decoders := []struct {
		name        string
		decode      func([]byte) error
		skip, value func(string) string
	}{
		{"request", func(b []byte) error { var r Request; return r.DecodeJSON(b) },
			func(v string) string { return `{"x":` + v + `,"signature":[1,2]}` },
			func(n string) string { return `{"signature":[` + n + `]}` }},
		{"response", func(b []byte) error { var r Response; return r.DecodeJSON(b) },
			func(v string) string { return `{"x":` + v + `,"version":1}` },
			func(n string) string { return `{"results":[{"certainty":` + n + `}]}` }},
		{"entry", func(b []byte) error { var e Entry; return e.DecodeRequest(EncodingJSON, false, b) },
			func(v string) string { return `{"x":` + v + `,"class":1}` },
			func(n string) string { return `{"class":` + n + `}` }},
	}
	for _, d := range decoders {
		var bad []string
		for _, v := range skipped {
			bad = append(bad, d.skip(v))
		}
		for _, n := range numbers {
			bad = append(bad, d.value(n))
		}
		bad = append(bad, d.value(`1`)+` x`, d.value(`1`)+`{}`)
		for _, b := range bad {
			if json.Valid([]byte(b)) {
				t.Fatalf("%s: table body %q is valid JSON", d.name, b)
			}
			if err := d.decode([]byte(b)); err == nil {
				t.Errorf("%s: decoded %q, want an error", d.name, b)
			}
		}
		good := []string{
			d.skip(`[[],{},[{}],{"a":[1,-0.5e-3,"s\"\u00e9",true,false,null]}]`),
			d.skip(`"\/\b\f\n\r\t\\"`) + " \n",
			d.value(`0`), d.value(`-0`), d.value(`1E+2`),
		}
		for _, b := range good {
			if !json.Valid([]byte(b)) {
				t.Fatalf("%s: table body %q is not valid JSON", d.name, b)
			}
			if err := d.decode([]byte(b)); err != nil {
				t.Errorf("%s: %q: %v", d.name, b, err)
			}
		}
	}
}

// TestSkipDepthBound pins the nesting bound of skipped values: the
// deepest value skipValue accepts, and one level more rejected.
func TestSkipDepthBound(t *testing.T) {
	nested := func(depth int) []byte {
		return []byte(`{"x":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `,"signature":[1]}`)
	}
	var req Request
	if err := req.DecodeJSON(nested(maxSkipDepth)); err != nil {
		t.Errorf("depth %d: %v", maxSkipDepth, err)
	}
	if err := req.DecodeJSON(nested(maxSkipDepth + 1)); err == nil {
		t.Errorf("depth %d decoded, want an error", maxSkipDepth+1)
	}
	if err := req.DecodeJSON(nested(1 << 16)); err == nil {
		t.Error("depth 65536 decoded, want an error")
	}
}

// TestNumberRoundTrip pins the parser's accuracy contract (see
// number.go): exact parses for every shortest-form encoding (what the
// wire codecs emit) across the non-extreme float64 range, and full
// determinism (equal bytes, equal values).
func TestNumberRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// 15-significant-digit texts in the rate range: mantissa < 2^53
	// and |decimal exponent| ≤ 22, so one rounding — exact on the
	// fast path alone.
	for i := 0; i < 5000; i++ {
		exp := rng.Intn(13) - 6 // 1e-6 .. 1e6: profiler-normalized rates
		v := (0.1 + 0.9*rng.Float64()) * math.Pow10(exp)
		if rng.Intn(2) == 0 {
			v = -v
		}
		text := strconv.AppendFloat(nil, v, 'g', 15, 64)
		want, err := strconv.ParseFloat(string(text), 64)
		if err != nil {
			t.Fatal(err)
		}
		s := scanner{b: text}
		got, err := s.number()
		if err != nil {
			t.Fatalf("parse %s: %v", text, err)
		}
		if got != want {
			t.Fatalf("15-digit parse %s: got %v, want %v", text, got, want)
		}
	}
	// Shortest-form encodings (what AppendFloat 'g' -1 emits): a
	// 16-17 digit mantissa exceeds 2^53; the shortest-representation
	// refinement must recover the exact value.
	for i := 0; i < 5000; i++ {
		exp := rng.Intn(13) - 6
		want := rng.Float64() * math.Pow10(exp)
		text := strconv.AppendFloat(nil, want, 'g', -1, 64)
		s := scanner{b: text}
		got, err := s.number()
		if err != nil {
			t.Fatalf("parse %s: %v", text, err)
		}
		if got != want {
			t.Fatalf("shortest-form parse %s: got %v, want %v (%d ulp apart)",
				text, got, want, ulpDiff(got, want))
		}
		s2 := scanner{b: text}
		again, _ := s2.number()
		if again != got {
			t.Fatalf("parse %s is not deterministic", text)
		}
	}
	// Arbitrary float64 bit patterns away from the subnormal/overflow
	// edges: still exact.
	for i := 0; i < 5000; i++ {
		want := math.Float64frombits(rng.Uint64())
		if math.IsNaN(want) || math.IsInf(want, 0) {
			continue
		}
		if m := math.Abs(want); m < 1e-290 || m > 1e290 {
			// Near-subnormal and near-overflow magnitudes degrade
			// gracefully but the fast-path estimate can land outside
			// the refinement window; signature rates live many orders
			// of magnitude away from either edge.
			continue
		}
		text := strconv.AppendFloat(nil, want, 'g', -1, 64)
		s := scanner{b: text}
		got, err := s.number()
		if err != nil {
			t.Fatalf("parse %s: %v", text, err)
		}
		if got != want {
			t.Fatalf("parse %s: got %v, want %v (%d ulp apart)", text, got, want, ulpDiff(got, want))
		}
	}
}

func ulpDiff(a, b float64) uint64 {
	ua, ub := math.Float64bits(math.Abs(a)), math.Float64bits(math.Abs(b))
	if (a < 0) != (b < 0) && a != b {
		return math.MaxUint64
	}
	if ua > ub {
		return ua - ub
	}
	return ub - ua
}

func TestParseIntegersAndExponents(t *testing.T) {
	cases := map[string]float64{
		`{"signature":[0]}`:                        0,
		`{"signature":[-0.5]}`:                     -0.5,
		`{"signature":[1E+3]}`:                     1000,
		`{"signature":[2.5e-1]}`:                   0.25,
		`{"signature":[123456789012345678901234]}`: 123456789012345678901234,
	}
	for body, want := range cases {
		req := parseOK(t, body)
		got := req.Row(0)[0]
		if got != want && math.Abs(got-want) > math.Abs(want)*1e-14 {
			t.Errorf("%s: got %v, want %v", body, got, want)
		}
	}
}

func TestResponseJSONRoundTrip(t *testing.T) {
	resp := Response{Version: 7, Lookup: true, Results: []Decision{
		{Class: 2, Certainty: 0.953, Unforeseen: false, Hit: true, Type: 2, Count: 5},
		{Class: -1, Certainty: 0.31, Unforeseen: true},
		{Class: 0, Certainty: 0.88},
	}}
	body := resp.AppendJSON(nil)
	var back Response
	if err := back.DecodeJSON(body); err != nil {
		t.Fatalf("decode %s: %v", body, err)
	}
	if back.Version != resp.Version || !back.Lookup || len(back.Results) != 3 {
		t.Fatalf("round trip: %+v", back)
	}
	for i := range resp.Results {
		if back.Results[i] != resp.Results[i] {
			t.Errorf("result %d: got %+v, want %+v", i, back.Results[i], resp.Results[i])
		}
	}

	// Classify responses carry no hit vocabulary and decode with
	// Lookup=false.
	resp.Lookup = false
	var clf Response
	if err := clf.DecodeJSON(resp.AppendJSON(nil)); err != nil {
		t.Fatal(err)
	}
	if clf.Lookup {
		t.Error("classify envelope decoded as lookup")
	}
	if clf.Results[0].Hit || clf.Results[0].Count != 0 {
		t.Errorf("classify row leaked lookup fields: %+v", clf.Results[0])
	}
}
