package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cloud"
)

// entryForm names one of the four get/put frame forms.
type entryForm struct{ put, reply bool }

func (f entryForm) String() string {
	op := "get"
	if f.put {
		op = "put"
	}
	if f.reply {
		return op + "-reply"
	}
	return op + "-request"
}

var entryForms = []entryForm{{false, false}, {true, false}, {false, true}, {true, true}}

func (f entryForm) append(e *Entry, enc Encoding, dst []byte) []byte {
	if f.reply {
		return e.AppendReply(enc, f.put, dst)
	}
	return e.AppendRequest(enc, f.put, dst)
}

func (f entryForm) decode(e *Entry, enc Encoding, body []byte) error {
	if f.reply {
		return e.DecodeReply(enc, f.put, body)
	}
	return e.DecodeRequest(enc, f.put, body)
}

// entriesEqual compares every field an Entry carries.
func entriesEqual(a, b *Entry) bool {
	return bytes.Equal(a.Template, b.Template) && a.Class == b.Class && a.Bucket == b.Bucket &&
		a.Type == b.Type && a.Count == b.Count && a.Version == b.Version && a.Hit == b.Hit &&
		a.Entries == b.Entries
}

// jsonSafeTemplate reports whether the JSON form carries the template
// verbatim: template ids travel unescaped, so a quote, backslash or
// control character picked up from a binary frame cannot cross into
// JSON.
func jsonSafeTemplate(t []byte) bool {
	for _, c := range t {
		if c == '"' || c == '\\' || c < 0x20 {
			return false
		}
	}
	return true
}

// checkEntryOracle is the round-trip oracle shared by the property
// test and the fuzz target: given a decoded entry of form f, encoding
// it in either encoding and decoding the result yields the same
// values.
func checkEntryOracle(t *testing.T, f entryForm, got *Entry) {
	t.Helper()
	for _, enc := range []Encoding{EncodingBinary, EncodingJSON} {
		if enc == EncodingJSON && !jsonSafeTemplate(got.Template) {
			continue
		}
		frame := f.append(got, enc, nil)
		var back Entry
		if err := f.decode(&back, enc, frame); err != nil {
			t.Fatalf("%v enc %d: decoding %q: %v", f, enc, frame, err)
		}
		if !entriesEqual(got, &back) {
			t.Fatalf("%v enc %d: %+v round-tripped to %+v via %q", f, enc, *got, back, frame)
		}
	}
}

// randomEntry fills the fields form f carries with random values in
// the frame's range.
func randomEntry(rng *rand.Rand, f entryForm) Entry {
	var e Entry
	if !f.reply {
		e.SetTemplate([]string{"", "cassandra", "specweb", "rubis", "t"}[rng.Intn(5)])
		e.Class = rng.Intn(40) - 1
		e.Bucket = rng.Intn(20)
		if rng.Intn(8) == 0 {
			e.Class, e.Bucket = math.MinInt32, math.MaxInt32
		}
	}
	alloc := func() {
		e.Type = cloud.TypeID(1 + rng.Intn(len(catalog)))
		e.Count = rng.Intn(1 << 20)
	}
	switch {
	case !f.reply && f.put:
		alloc()
	case f.reply:
		e.Version = uint64(rng.Int63n(maxEntryVersion + 1))
		if f.put {
			e.Entries = rng.Intn(math.MaxInt32)
		} else if e.Hit = rng.Intn(2) == 0; e.Hit {
			alloc()
		}
	}
	return e
}

// TestEntryRoundTrip holds every form to the oracle over random
// values: decode∘encode is the identity in each encoding, and the
// binary and JSON forms decode to equal values.
func TestEntryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, f := range entryForms {
		for i := 0; i < 500; i++ {
			e := randomEntry(rng, f)
			checkEntryOracle(t, f, &e)
		}
	}
}

// TestEntryReplyKeepsRequest pins that a reply decodes into the entry
// its request came from without disturbing the request fields, so a
// registry can fan one put out to several replicas from one Entry.
func TestEntryReplyKeepsRequest(t *testing.T) {
	for _, enc := range []Encoding{EncodingBinary, EncodingJSON} {
		var e Entry
		e.SetTemplate("cassandra")
		e.Class, e.Bucket, e.Type, e.Count = 2, 3, cloud.LargeID, 4
		reply := Entry{Version: 9, Entries: 12}
		if err := e.DecodeReply(enc, true, reply.AppendReply(enc, true, nil)); err != nil {
			t.Fatal(err)
		}
		want := Entry{Template: []byte("cassandra"), Class: 2, Bucket: 3, Type: cloud.LargeID, Count: 4, Version: 9, Entries: 12}
		if !entriesEqual(&e, &want) {
			t.Errorf("enc %d: put reply left %+v, want %+v", enc, e, want)
		}
		miss := Entry{Version: 10}
		if err := e.DecodeReply(enc, false, miss.AppendReply(enc, false, nil)); err != nil {
			t.Fatal(err)
		}
		want = Entry{Template: []byte("cassandra"), Class: 2, Bucket: 3, Version: 10}
		if !entriesEqual(&e, &want) {
			t.Errorf("enc %d: get miss left %+v, want %+v", enc, e, want)
		}
	}
}

// TestEntryJSONCompat pins the JSON forms to the /v1/get and /v1/put
// bodies: replies byte for byte as the encoding/json-era daemon
// printed them, requests readable by encoding/json into the daemon's
// old request shape, and the old client's bodies (encoding/json, keys
// sorted) readable by the new decoder.
func TestEntryJSONCompat(t *testing.T) {
	hit := Entry{Version: 7, Hit: true, Type: cloud.XLargeID, Count: 3}
	if got, want := string(hit.AppendReply(EncodingJSON, false, nil)), fmt.Sprintf(`{"version":%d,"hit":true,"type":%q,"count":%d}`+"\n", 7, "xlarge", 3); got != want {
		t.Errorf("get hit reply %q, want %q", got, want)
	}
	miss := Entry{Version: 7}
	if got, want := string(miss.AppendReply(EncodingJSON, false, nil)), fmt.Sprintf(`{"version":%d,"hit":false}`+"\n", 7); got != want {
		t.Errorf("get miss reply %q, want %q", got, want)
	}
	put := Entry{Version: 7, Entries: 12}
	if got, want := string(put.AppendReply(EncodingJSON, true, nil)), fmt.Sprintf(`{"version":%d,"entries":%d}`+"\n", 7, 12); got != want {
		t.Errorf("put reply %q, want %q", got, want)
	}

	var req Entry
	req.SetTemplate("rubis")
	req.Class, req.Bucket, req.Type, req.Count = 1, 2, cloud.LargeID, 5
	var old struct {
		Template string `json:"template"`
		Class    int    `json:"class"`
		Bucket   int    `json:"bucket"`
		Type     string `json:"type"`
		Count    int    `json:"count"`
	}
	if err := json.Unmarshal(req.AppendRequest(EncodingJSON, true, nil), &old); err != nil {
		t.Fatal(err)
	}
	if old.Template != "rubis" || old.Class != 1 || old.Bucket != 2 || old.Type != "large" || old.Count != 5 {
		t.Errorf("encoding/json read the put request as %+v", old)
	}

	body, err := json.Marshal(map[string]any{"template": "rubis", "class": 1, "bucket": 2, "type": "large", "count": 5})
	if err != nil {
		t.Fatal(err)
	}
	var got Entry
	if err := got.DecodeRequest(EncodingJSON, true, body); err != nil {
		t.Fatal(err)
	}
	want := Entry{Template: []byte("rubis"), Class: 1, Bucket: 2, Type: cloud.LargeID, Count: 5}
	if !entriesEqual(&got, &want) {
		t.Errorf("old client body %s decoded to %+v", body, got)
	}
}

// TestEntryDecodeErrors covers the rejections: malformed frames, the
// forms' required fields, and out-of-range values.
func TestEntryDecodeErrors(t *testing.T) {
	putFrame := func(typ, count uint64) []byte {
		b := []byte{0, 0, 0, 0, entryReqMagic, Version, 1, 't'}
		b = appendZigzag(b, 0)
		b = appendZigzag(b, 0)
		b = appendUvarint(b, typ)
		b = appendUvarint(b, count)
		return fixLen(b)
	}
	hitFrame := func(hit byte) []byte {
		return fixLen([]byte{0, 0, 0, 0, entryRespMagic, Version, 1, hit, byte(cloud.LargeID), 1})
	}
	good := Entry{Class: 1}
	cases := []struct {
		name string
		f    entryForm
		enc  Encoding
		body []byte
	}{
		{"empty", entryForm{}, EncodingBinary, nil},
		{"request magic on a reply", entryForm{reply: true}, EncodingBinary, good.AppendRequest(EncodingBinary, false, nil)},
		{"trailing bytes", entryForm{}, EncodingBinary, fixLen(append(good.AppendRequest(EncodingBinary, false, nil), 0))},
		{"put without a type", entryForm{put: true}, EncodingBinary, putFrame(0, 1)},
		{"unknown type id", entryForm{put: true}, EncodingBinary, putFrame(uint64(len(catalog))+1, 1)},
		{"count out of range", entryForm{put: true}, EncodingBinary, putFrame(1, 1<<20+1)},
		{"hit byte 2", entryForm{reply: true}, EncodingBinary, hitFrame(2)},
		{"json put without a type", entryForm{put: true}, EncodingJSON, []byte(`{"class":0,"bucket":0,"count":1}`)},
		{"json unknown type", entryForm{put: true}, EncodingJSON, []byte(`{"class":0,"bucket":0,"type":"petabyte","count":1}`)},
		{"json fractional class", entryForm{}, EncodingJSON, []byte(`{"class":0.5}`)},
		{"json class beyond int32", entryForm{}, EncodingJSON, []byte(`{"class":4294967296}`)},
		{"json hit without a type", entryForm{reply: true}, EncodingJSON, []byte(`{"version":1,"hit":true,"count":1}`)},
		{"json version beyond 2^53", entryForm{reply: true}, EncodingJSON, []byte(`{"version":18014398509481984,"hit":false}`)},
		{"json trailing garbage", entryForm{}, EncodingJSON, []byte(`{"class":1} x`)},
		{"json truncated", entryForm{}, EncodingJSON, []byte(`{"class":1`)},
	}
	for _, c := range cases {
		var e Entry
		if err := c.f.decode(&e, c.enc, c.body); err == nil {
			t.Errorf("%s: decoded %q as %+v, want an error", c.name, c.body, e)
		}
	}
}

// fixLen backpatches a binary frame's length prefix.
func fixLen(b []byte) []byte {
	b[0], b[1], b[2], b[3] = byte(len(b)-4), byte((len(b)-4)>>8), 0, 0
	return b
}

// TestEntryCodecZeroAlloc pins the get/put codec at 0 allocs per
// encode+decode on warmed scratch, in both encodings and all four
// forms — the frames ride the decision plane's zero-alloc envelopes.
func TestEntryCodecZeroAlloc(t *testing.T) {
	for _, enc := range []Encoding{EncodingBinary, EncodingJSON} {
		for _, put := range []bool{false, true} {
			var req, srv, reply Entry
			var buf []byte
			allocs := testing.AllocsPerRun(200, func() {
				req.Reset()
				req.SetTemplate("cassandra")
				req.Class, req.Bucket, req.Type, req.Count = 3, 2, cloud.LargeID, 4
				buf = req.AppendRequest(enc, put, buf[:0])
				if err := srv.DecodeRequest(enc, put, buf); err != nil {
					t.Fatal(err)
				}
				srv.Version, srv.Entries = 5, 9
				srv.Hit, srv.Type, srv.Count = true, cloud.LargeID, 4
				buf = srv.AppendReply(enc, put, buf[:0])
				if err := reply.DecodeReply(enc, put, buf); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("enc %d put=%v: get/put codec allocates %.1f times per round trip, want 0", enc, put, allocs)
			}
		}
	}
}

// FuzzEntryFrame feeds arbitrary bytes to the get/put decoders in both
// encodings and all four forms (form bit0 = put, bit1 = reply). The
// decoders must never panic, and whatever they accept must satisfy
// the round-trip oracle: decode∘encode is the identity, and the binary
// and JSON forms decode to equal values. Seed corpus:
// testdata/fuzz/FuzzEntryFrame.
func FuzzEntryFrame(f *testing.F) {
	rng := rand.New(rand.NewSource(13))
	for i, form := range entryForms {
		e := randomEntry(rng, form)
		for _, enc := range []Encoding{EncodingBinary, EncodingJSON} {
			f.Add(uint8(i), form.append(&e, enc, nil))
		}
	}
	f.Fuzz(func(t *testing.T, formBits uint8, data []byte) {
		form := entryForm{put: formBits&1 != 0, reply: formBits&2 != 0}
		for _, enc := range []Encoding{EncodingBinary, EncodingJSON} {
			var e Entry
			if err := form.decode(&e, enc, data); err != nil {
				continue
			}
			checkEntryOracle(t, form, &e)
		}
	})
}
