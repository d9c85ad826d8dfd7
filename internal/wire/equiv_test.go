package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// randomRequest builds a random rectangular batch whose values span
// the full float64 range the decision plane can carry (profiler-
// normalized rates plus adversarial magnitudes), drawn as raw bit
// patterns away from the subnormal/overflow edges.
func randomRequest(rng *rand.Rand) *Request {
	var req Request
	if rng.Intn(2) == 0 {
		req.SetTemplate([]string{"cassandra", "specweb", "rubis", "t"}[rng.Intn(4)])
	}
	req.Bucket = rng.Intn(19)
	rows := 1 + rng.Intn(24)
	width := 1 + rng.Intn(12)
	row := make([]float64, width)
	for i := 0; i < rows; i++ {
		for j := range row {
			row[j] = randomFloat(rng)
		}
		req.AppendRow(row)
	}
	return &req
}

func randomFloat(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0: // realistic profiler-normalized rate
		return (rng.Float64() - 0.3) * math.Pow10(rng.Intn(13)-6)
	case 1: // small integer
		return float64(rng.Intn(2000) - 500)
	default: // arbitrary bits, clamped away from the extreme edges
		for {
			v := math.Float64frombits(rng.Uint64())
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			if m := math.Abs(v); v != 0 && (m < 1e-290 || m > 1e290) {
				continue
			}
			return v
		}
	}
}

// TestWireJSONBinaryEquivalence is the property test behind the
// protocol's compatibility claim: any batch encoded by the JSON codec
// and by the binary codec decodes to bit-equal values, so a fleet can
// mix transports (or roll between them) without a single decision
// changing.
func TestWireJSONBinaryEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var jsonReq, binReq Request
	var jsonBuf, binBuf []byte
	for iter := 0; iter < 300; iter++ {
		req := randomRequest(rng)
		jsonBuf = req.AppendJSON(jsonBuf[:0])
		var err error
		if binBuf, err = req.AppendBinary(binBuf[:0]); err != nil {
			t.Fatal(err)
		}
		if err := jsonReq.DecodeJSON(jsonBuf); err != nil {
			t.Fatalf("iter %d: json decode: %v", iter, err)
		}
		if err := binReq.DecodeBinary(binBuf); err != nil {
			t.Fatalf("iter %d: binary decode: %v", iter, err)
		}
		if string(jsonReq.Template) != string(binReq.Template) ||
			jsonReq.Bucket != binReq.Bucket || jsonReq.Rows() != binReq.Rows() {
			t.Fatalf("iter %d: header mismatch: %+v vs %+v", iter, jsonReq, binReq)
		}
		for i := 0; i < jsonReq.Rows(); i++ {
			jr, br := jsonReq.Row(i), binReq.Row(i)
			for j := range jr {
				if math.Float64bits(jr[j]) != math.Float64bits(br[j]) {
					t.Fatalf("iter %d row %d col %d: json %v (%x) != binary %v (%x) for original %v",
						iter, i, j, jr[j], math.Float64bits(jr[j]), br[j], math.Float64bits(br[j]),
						req.Row(i)[j])
				}
			}
		}
	}

	// Responses: same property, both vocabularies.
	var jsonResp, binResp Response
	for iter := 0; iter < 300; iter++ {
		resp := randomResponse(rng)
		jsonBuf = resp.AppendJSON(jsonBuf[:0])
		binBuf = resp.AppendBinary(binBuf[:0])
		if err := jsonResp.DecodeJSON(jsonBuf); err != nil {
			t.Fatalf("iter %d: json decode: %v", iter, err)
		}
		if err := binResp.DecodeBinary(binBuf); err != nil {
			t.Fatalf("iter %d: binary decode: %v", iter, err)
		}
		if jsonResp.Version != binResp.Version || len(jsonResp.Results) != len(binResp.Results) {
			t.Fatalf("iter %d: envelope mismatch", iter)
		}
		for i := range resp.Results {
			j, b := jsonResp.Results[i], binResp.Results[i]
			if math.Float64bits(j.Certainty) != math.Float64bits(b.Certainty) {
				t.Fatalf("iter %d row %d: certainty %x != %x", iter, i,
					math.Float64bits(j.Certainty), math.Float64bits(b.Certainty))
			}
			j.Certainty, b.Certainty = 0, 0
			if j != b {
				t.Fatalf("iter %d row %d: %+v != %+v", iter, i, j, b)
			}
		}
	}
}

// randomResponse builds a random response in the range both
// encodings carry.
func randomResponse(rng *rand.Rand) *Response {
	resp := &Response{Version: rng.Uint64() % (1 << 40), Lookup: rng.Intn(2) == 0}
	for i := 0; i < 1+rng.Intn(24); i++ {
		d := Decision{Class: rng.Intn(8) - 1, Certainty: math.Abs(randomFloat(rng))}
		if d.Class == -1 {
			d.Unforeseen = true
		}
		if resp.Lookup && d.Class >= 0 && rng.Intn(2) == 0 {
			d.Hit = true
			d.Type = catalog[rng.Intn(len(catalog))].ID()
			d.Count = 1 + rng.Intn(40)
		}
		resp.Results = append(resp.Results, d)
	}
	return resp
}

func requestsEqual(a, b *Request) bool {
	if !bytes.Equal(a.Template, b.Template) || a.Bucket != b.Bucket || a.Rows() != b.Rows() {
		return false
	}
	for i := 0; i < a.Rows(); i++ {
		ra, rb := a.Row(i), b.Row(i)
		if len(ra) != len(rb) {
			return false
		}
		for j := range ra {
			if math.Float64bits(ra[j]) != math.Float64bits(rb[j]) {
				return false
			}
		}
	}
	return true
}

func responsesEqual(a, b *Response) bool {
	if a.Version != b.Version || a.Lookup != b.Lookup || len(a.Results) != len(b.Results) {
		return false
	}
	for i := range a.Results {
		da, db := a.Results[i], b.Results[i]
		if math.Float64bits(da.Certainty) != math.Float64bits(db.Certainty) {
			return false
		}
		da.Certainty, db.Certainty = 0, 0
		if da != db {
			return false
		}
	}
	return true
}

func allFinite(vs []float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// jsonCarriesRequest reports whether the JSON vocabulary can carry r:
// JSON numbers have no NaN or ±Inf, and template ids travel unescaped.
func jsonCarriesRequest(r *Request) bool {
	return jsonSafeTemplate(r.Template) && allFinite(r.vals)
}

// jsonCarriesResponse reports whether the JSON vocabulary can carry r:
// finite certainties, versions and classes in the JSON decoder's
// range, and the lookup vocabulary only where a row shows it.
func jsonCarriesResponse(r *Response) bool {
	if r.Version > maxEntryVersion || r.Lookup && len(r.Results) == 0 {
		return false
	}
	for _, d := range r.Results {
		if math.IsNaN(d.Certainty) || math.IsInf(d.Certainty, 0) ||
			d.Class < -1 || d.Class > 1<<20 || d.Hit && !r.Lookup {
			return false
		}
	}
	return true
}

// checkRequestOracle re-encodes a decoded request in every encoding
// that carries it and requires the decode to give it back bit for
// bit; with both legs run, the binary and JSON decodes are bit-equal.
func checkRequestOracle(t *testing.T, got *Request) {
	t.Helper()
	for _, enc := range []Encoding{EncodingBinary, EncodingJSON} {
		if _, ok := got.Rectangular(); enc == EncodingBinary && !ok ||
			enc == EncodingJSON && !jsonCarriesRequest(got) {
			continue
		}
		frame, err := got.Append(enc, nil)
		if err != nil {
			t.Fatalf("enc %d: encoding %+v: %v", enc, *got, err)
		}
		var back Request
		if err := back.Decode(enc, frame); err != nil {
			t.Fatalf("enc %d: decoding %q: %v", enc, frame, err)
		}
		if !requestsEqual(got, &back) {
			t.Fatalf("enc %d: %+v round-tripped to %+v via %q", enc, *got, back, frame)
		}
	}
}

// checkResponseOracle is checkRequestOracle for responses.
func checkResponseOracle(t *testing.T, got *Response) {
	t.Helper()
	for _, enc := range []Encoding{EncodingBinary, EncodingJSON} {
		if enc == EncodingJSON && !jsonCarriesResponse(got) {
			continue
		}
		frame := got.Append(enc, nil)
		var back Response
		if err := back.Decode(enc, frame); err != nil {
			t.Fatalf("enc %d: decoding %q: %v", enc, frame, err)
		}
		if !responsesEqual(got, &back) {
			t.Fatalf("enc %d: %+v round-tripped to %+v via %q", enc, *got, back, frame)
		}
	}
}

// FuzzDecisionFrame feeds arbitrary bytes to the decision decoders in
// both encodings (kind bit0: 0 = request, 1 = response). The decoders
// must never panic; every JSON body they accept must be valid JSON;
// and whatever they accept must satisfy the round-trip oracle:
// decode∘encode is the identity, and the binary and JSON forms decode
// to bit-equal values. Seed corpus: testdata/fuzz/FuzzDecisionFrame.
func FuzzDecisionFrame(f *testing.F) {
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 3; i++ {
		req := randomRequest(rng)
		bin, err := req.AppendBinary(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(0), bin)
		f.Add(uint8(0), req.AppendJSON(nil))
		resp := randomResponse(rng)
		f.Add(uint8(1), resp.AppendBinary(nil))
		f.Add(uint8(1), resp.AppendJSON(nil))
	}
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		for _, enc := range []Encoding{EncodingBinary, EncodingJSON} {
			var err error
			if kind&1 == 0 {
				var req Request
				if err = req.Decode(enc, data); err == nil {
					checkRequestOracle(t, &req)
				}
			} else {
				var resp Response
				if err = resp.Decode(enc, data); err == nil {
					checkResponseOracle(t, &resp)
				}
			}
			if err == nil && enc == EncodingJSON && !json.Valid(data) {
				t.Fatalf("JSON decoder accepted invalid JSON %q", data)
			}
		}
	})
}
