// Package wire is the decision-plane protocol: the single
// transport-agnostic codec stack shared by dejavud (internal/server),
// the client library (internal/client), and the decision proxy
// (internal/proxy). A decision request carries a batch of signature
// vectors plus an interference bucket and a template id; a decision
// response carries one classify/lookup decision per signature, tagged
// with the repository version that served the batch.
//
// Two encodings are negotiated via Content-Type:
//
//   - application/json — the compatibility path: the original
//     hand-rolled, allocation-free JSON vocabulary ({"template":...,
//     "bucket":..., "signatures":[[...]]}) kept byte-compatible with
//     pre-wire dejavud deployments.
//   - application/x-dejavu-batch — the binary columnar batch
//     encoding: a length-prefixed frame holding the signature batch
//     as one dense little-endian float64 block (values cross the
//     wire bit-exactly, no parse/format tax) with varint ids for
//     template length, bucket, row/column counts, classes, and
//     allocation types.
//
// Both encodings decode to identical in-memory structures; for every
// payload the codecs themselves produce, the decoded values are
// bit-equal across encodings (TestWireJSONBinaryEquivalence). Encoding
// and decoding are allocation-free at steady state on both the client
// and the server side of the exchange: all codec state lives in
// caller-owned scratch that warms up to the workload's batch size
// (BenchmarkCodec pins 0 allocs/op for the binary codec).
//
// Frame layouts (all multi-byte integers little-endian, "uv" =
// unsigned LEB128 varint, "zv" = zigzag varint):
//
//	request  := len:u32 magic:0xDC ver:0x01
//	            uv(len(template)) template-bytes
//	            uv(bucket) uv(rows) uv(width)
//	            rows×width float64 values (row-major dense block)
//	response := len:u32 magic:0xDD ver:0x01 flags:u8   (bit0 = lookup)
//	            uv(repoVersion) uv(rows)
//	            rows×u8 row-flags                      (bit0 unforeseen, bit1 hit)
//	            rows×zv class                          (-1 = novelty rejection)
//	            rows×float64 certainty
//	            per hit row, in row order: uv(typeID) uv(count)
//
// The u32 length prefix counts every byte after itself. HTTP framing
// (Content-Length) makes it redundant there, but it keeps the frames
// self-delimiting for raw-stream transports and lets decoders reject
// truncated bodies before touching the payload.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/cloud"
)

// Content types negotiated on decision endpoints.
const (
	// ContentTypeJSON is the compatibility encoding.
	ContentTypeJSON = "application/json"
	// ContentTypeBinary is the binary columnar batch encoding.
	ContentTypeBinary = "application/x-dejavu-batch"
)

// Protocol framing constants.
const (
	reqMagic  = 0xDC
	respMagic = 0xDD
	// Version is the binary protocol version emitted and accepted by
	// this codec. Decoders reject frames with any other version so a
	// future layout change fails loudly instead of misparsing.
	Version = 1
)

// maxRows bounds a decoded batch (defense against hostile frames; the
// server's body-size limit bounds honest ones).
const maxRows = 1 << 20

// maxValues bounds rows×width.
const maxValues = 1 << 24

// Encoding selects one of the two negotiated codecs.
type Encoding uint8

const (
	// EncodingJSON is the compatibility path.
	EncodingJSON Encoding = iota
	// EncodingBinary is the columnar batch encoding.
	EncodingBinary
)

// ContentType returns the Content-Type header value for the encoding.
func (e Encoding) ContentType() string {
	if e == EncodingBinary {
		return ContentTypeBinary
	}
	return ContentTypeJSON
}

// EncodingForContentType maps a Content-Type header to an Encoding:
// exactly ContentTypeBinary selects the binary codec, anything else
// (including absent or nonstandard types — the pre-wire server never
// inspected the header, so historical clients send all sorts) is the
// JSON compatibility path. A binary frame mislabeled as JSON fails
// loudly at the first scan, never silently misparses. Parameters
// after ';' are ignored.
func EncodingForContentType(ct string) Encoding {
	for i := 0; i < len(ct); i++ {
		if ct[i] == ';' {
			ct = ct[:i]
			break
		}
	}
	if ct == ContentTypeBinary {
		return EncodingBinary
	}
	return EncodingJSON
}

// Request is the decoded form of a decision request, backed entirely
// by reusable scratch storage: row i of the batch is
// vals[ends[i-1]:ends[i]] (ends[-1] meaning 0). The JSON encoding
// permits ragged rows (the server rejects them against the
// repository width); the binary encoding is structurally rectangular.
type Request struct {
	// Template routes the batch to one of the server's templates;
	// empty means the server's sole (or "default") template. The
	// slice aliases either the request body or the tmpl scratch —
	// valid until the next Reset.
	Template []byte
	// Bucket is the interference bucket for lookups.
	Bucket int
	// Single records that a JSON request used the "signature" key (a
	// batch of one). It exists for the empty-request validation and
	// for tests; the reply envelope is always batched regardless.
	Single bool

	vals []float64
	ends []int
	tmpl []byte // scratch backing Template for client-built requests
}

// Rows returns the batch size.
func (r *Request) Rows() int { return len(r.ends) }

// Row returns the i-th signature of the batch.
func (r *Request) Row(i int) []float64 {
	start := 0
	if i > 0 {
		start = r.ends[i-1]
	}
	return r.vals[start:r.ends[i]]
}

// Reset clears the request for reuse, keeping capacity.
func (r *Request) Reset() {
	r.Template = nil
	r.Bucket = 0
	r.Single = false
	r.vals = r.vals[:0]
	r.ends = r.ends[:0]
}

// SetTemplate records the routing template without allocating at
// steady state (the name is copied into reusable scratch).
func (r *Request) SetTemplate(name string) {
	r.tmpl = append(r.tmpl[:0], name...)
	r.Template = r.tmpl
}

// AppendRow adds one signature to the batch.
func (r *Request) AppendRow(vals []float64) {
	r.vals = append(r.vals, vals...)
	r.ends = append(r.ends, len(r.vals))
}

// Rectangular reports whether every row has the same width, returning
// that width. The binary encoding requires it.
func (r *Request) Rectangular() (int, bool) {
	if len(r.ends) == 0 {
		return 0, true
	}
	w := r.ends[0]
	for i := 1; i < len(r.ends); i++ {
		if r.ends[i]-r.ends[i-1] != w {
			return 0, false
		}
	}
	return w, true
}

// AppendBinary encodes the request as one binary frame appended to
// dst. The batch must be rectangular with rows of width ≥ 1: the
// decoder rejects anything else, so the encoder never writes it.
func (r *Request) AppendBinary(dst []byte) ([]byte, error) {
	width, ok := r.Rectangular()
	if !ok || width == 0 {
		return dst, errors.New("wire: binary encoding requires a non-empty rectangular batch")
	}
	lenAt := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length prefix backpatched below
	dst = append(dst, reqMagic, Version)
	dst = appendUvarint(dst, uint64(len(r.Template)))
	dst = append(dst, r.Template...)
	dst = appendUvarint(dst, uint64(r.Bucket))
	dst = appendUvarint(dst, uint64(len(r.ends)))
	dst = appendUvarint(dst, uint64(width))
	for _, v := range r.vals {
		dst = appendF64(dst, v)
	}
	binary.LittleEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	return dst, nil
}

// DecodeBinary fills the request from one binary frame, reusing the
// request's buffers. The Template slice aliases body.
func (r *Request) DecodeBinary(body []byte) error {
	r.Reset()
	d := bdecoder{b: body}
	if err := d.frameHeader(reqMagic); err != nil {
		return err
	}
	tlen, err := d.uvarint()
	if err != nil {
		return err
	}
	if tlen > maxTemplateLen {
		return fmt.Errorf("wire: template id of %d bytes exceeds limit %d", tlen, maxTemplateLen)
	}
	if r.Template, err = d.bytes(int(tlen)); err != nil {
		return err
	}
	bucket, err := d.uvarint()
	if err != nil {
		return err
	}
	if bucket > 1<<20 {
		return fmt.Errorf("wire: bucket %d is not a small non-negative integer", bucket)
	}
	r.Bucket = int(bucket)
	rows, err := d.uvarint()
	if err != nil {
		return err
	}
	width, err := d.uvarint()
	if err != nil {
		return err
	}
	if rows == 0 {
		return errors.New("wire: request contains no signatures")
	}
	// Bound each factor before multiplying: a hostile frame with
	// rows×width wrapping uint64 must not sneak past the product
	// check and panic the row indexer.
	if rows > maxRows || width == 0 || width > maxValues || rows*width > maxValues {
		return fmt.Errorf("wire: batch of %d×%d values exceeds limits", rows, width)
	}
	n := int(rows * width)
	if cap(r.vals) < n {
		r.vals = make([]float64, 0, n)
	}
	r.vals = r.vals[:n]
	for i := range r.vals {
		v, err := d.f64()
		if err != nil {
			return err
		}
		r.vals[i] = v
	}
	for i := 1; i <= int(rows); i++ {
		r.ends = append(r.ends, i*int(width))
	}
	return d.done()
}

// maxTemplateLen bounds a template id on the wire.
const maxTemplateLen = 256

// Decode dispatches on the encoding.
func (r *Request) Decode(enc Encoding, body []byte) error {
	if enc == EncodingBinary {
		return r.DecodeBinary(body)
	}
	return r.DecodeJSON(body)
}

// Append encodes the request in the given encoding.
func (r *Request) Append(enc Encoding, dst []byte) ([]byte, error) {
	if enc == EncodingBinary {
		return r.AppendBinary(dst)
	}
	return r.AppendJSON(dst), nil
}

// Decision is one classify/lookup result row.
type Decision struct {
	// Class is the matched workload class (-1 on novelty rejection).
	Class int
	// Certainty is the classifier confidence in [0, 1].
	Certainty float64
	// Unforeseen reports that the signature looks unlike every
	// learned class.
	Unforeseen bool
	// Hit reports a usable cached allocation (lookups only).
	Hit bool
	// Type and Count are the cached allocation; valid only when Hit.
	Type  cloud.TypeID
	Count int
}

// Response is the decoded form of a decision response. Results reuses
// capacity across Resets; Decision holds no pointers, so a warmed
// response decodes without allocating.
type Response struct {
	// Version is the repository snapshot version that served the
	// batch.
	Version uint64
	// Lookup selects the response vocabulary: lookup rows carry
	// hit/type/count, classify rows do not.
	Lookup bool
	// Results holds one decision per request row.
	Results []Decision
}

// Reset clears the response for reuse, keeping capacity.
func (r *Response) Reset() {
	r.Version = 0
	r.Lookup = false
	r.Results = r.Results[:0]
}

// AppendBinary encodes the response as one binary frame appended to
// dst.
func (r *Response) AppendBinary(dst []byte) []byte {
	lenAt := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	var flags byte
	if r.Lookup {
		flags |= 1
	}
	dst = append(dst, respMagic, Version, flags)
	dst = appendUvarint(dst, r.Version)
	dst = appendUvarint(dst, uint64(len(r.Results)))
	for i := range r.Results {
		var f byte
		if r.Results[i].Unforeseen {
			f |= 1
		}
		if r.Results[i].Hit {
			f |= 2
		}
		dst = append(dst, f)
	}
	for i := range r.Results {
		dst = appendZigzag(dst, int64(r.Results[i].Class))
	}
	for i := range r.Results {
		dst = appendF64(dst, r.Results[i].Certainty)
	}
	for i := range r.Results {
		if r.Results[i].Hit {
			dst = appendUvarint(dst, uint64(r.Results[i].Type))
			dst = appendUvarint(dst, uint64(r.Results[i].Count))
		}
	}
	binary.LittleEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	return dst
}

// DecodeBinary fills the response from one binary frame, reusing the
// Results buffer.
func (r *Response) DecodeBinary(body []byte) error {
	r.Reset()
	d := bdecoder{b: body}
	if err := d.frameHeader(respMagic); err != nil {
		return err
	}
	flags, err := d.u8()
	if err != nil {
		return err
	}
	r.Lookup = flags&1 != 0
	if r.Version, err = d.uvarint(); err != nil {
		return err
	}
	rows, err := d.uvarint()
	if err != nil {
		return err
	}
	if rows > maxRows {
		return fmt.Errorf("wire: response of %d rows exceeds limit", rows)
	}
	n := int(rows)
	if cap(r.Results) < n {
		r.Results = make([]Decision, 0, n)
	}
	r.Results = r.Results[:n]
	for i := range r.Results {
		f, err := d.u8()
		if err != nil {
			return err
		}
		r.Results[i] = Decision{Unforeseen: f&1 != 0, Hit: f&2 != 0}
	}
	for i := range r.Results {
		c, err := d.zigzag()
		if err != nil {
			return err
		}
		r.Results[i].Class = int(c)
	}
	for i := range r.Results {
		v, err := d.f64()
		if err != nil {
			return err
		}
		r.Results[i].Certainty = v
	}
	for i := range r.Results {
		if !r.Results[i].Hit {
			continue
		}
		typ, err := d.uvarint()
		if err != nil {
			return err
		}
		if typ == 0 || typ > uint64(len(catalog)) {
			return fmt.Errorf("wire: unknown allocation type id %d", typ)
		}
		count, err := d.uvarint()
		if err != nil {
			return err
		}
		if count > 1<<20 {
			return fmt.Errorf("wire: allocation count %d out of range", count)
		}
		r.Results[i].Type = cloud.TypeID(typ)
		r.Results[i].Count = int(count)
	}
	return d.done()
}

// Decode dispatches on the encoding.
func (r *Response) Decode(enc Encoding, body []byte) error {
	if enc == EncodingBinary {
		return r.DecodeBinary(body)
	}
	return r.DecodeJSON(body)
}

// Append encodes the response in the given encoding.
func (r *Response) Append(enc Encoding, dst []byte) []byte {
	if enc == EncodingBinary {
		return r.AppendBinary(dst)
	}
	return r.AppendJSON(dst)
}

// --- binary primitives ---

func appendF64(dst []byte, v float64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	return append(dst, b[:]...)
}

func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

func appendZigzag(dst []byte, v int64) []byte {
	return appendUvarint(dst, uint64(v<<1)^uint64(v>>63))
}

// bdecoder walks one binary frame.
type bdecoder struct {
	b []byte
	i int
}

// frameHeader validates the length prefix, magic, and version.
func (d *bdecoder) frameHeader(magic byte) error {
	if len(d.b) < 6 {
		return errTruncated
	}
	n := binary.LittleEndian.Uint32(d.b)
	if int(n) != len(d.b)-4 {
		return fmt.Errorf("wire: frame length %d does not match body length %d", n, len(d.b)-4)
	}
	if d.b[4] != magic {
		return fmt.Errorf("wire: bad frame magic 0x%02X", d.b[4])
	}
	if d.b[5] != Version {
		return fmt.Errorf("wire: unsupported protocol version %d", d.b[5])
	}
	d.i = 6
	return nil
}

func (d *bdecoder) u8() (byte, error) {
	if d.i >= len(d.b) {
		return 0, errTruncated
	}
	v := d.b[d.i]
	d.i++
	return v, nil
}

func (d *bdecoder) uvarint() (uint64, error) {
	var v uint64
	for shift := 0; shift < 64; shift += 7 {
		if d.i >= len(d.b) {
			return 0, errTruncated
		}
		c := d.b[d.i]
		d.i++
		v |= uint64(c&0x7F) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("wire: varint overflow")
}

func (d *bdecoder) zigzag() (int64, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	return int64(v>>1) ^ -int64(v&1), nil
}

func (d *bdecoder) f64() (float64, error) {
	if d.i+8 > len(d.b) {
		return 0, errTruncated
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.i:]))
	d.i += 8
	return v, nil
}

func (d *bdecoder) bytes(n int) ([]byte, error) {
	if d.i+n > len(d.b) {
		return nil, errTruncated
	}
	v := d.b[d.i : d.i+n]
	d.i += n
	return v, nil
}

// done verifies the frame was fully consumed — trailing garbage means
// a framing bug on the peer.
func (d *bdecoder) done() error {
	if d.i != len(d.b) {
		return fmt.Errorf("wire: %d trailing bytes after frame", len(d.b)-d.i)
	}
	return nil
}
