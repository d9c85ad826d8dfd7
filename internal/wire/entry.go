package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"

	"repro/internal/cloud"
)

// Get/put frames: the repository probe by (class, bucket) that the
// controller's interference path issues, and the store of a freshly
// tuned allocation. Unlike decisions they carry no signatures, so one
// small frame type serves both requests and replies; the operation
// (get or put) is named by the carrier — the HTTP path (/v1/get,
// /v1/put) or the stream envelope flag (StreamFlagGet, StreamFlagPut)
// — not by the frame.
//
// Binary layouts (same primitives as the decision frames):
//
//	get request := len:u32 magic:0xDE ver:0x01
//	               uv(len(template)) template-bytes zv(class) zv(bucket)
//	put request := get request ++ uv(typeID) uv(count)
//	get reply   := len:u32 magic:0xDF ver:0x01 uv(version)
//	               hit:u8 [hit: uv(typeID) uv(count)]
//	put reply   := len:u32 magic:0xDF ver:0x01 uv(version) uv(entries)
//
// The JSON forms are the /v1/get and /v1/put bodies, byte for byte:
//
//	get request := {"template":"t","class":1,"bucket":2}
//	put request := {"template":"t","class":1,"bucket":2,"type":"large","count":3}
//	get reply   := {"version":7,"hit":false}\n
//	             | {"version":7,"hit":true,"type":"large","count":3}\n
//	put reply   := {"version":7,"entries":12}\n
//
// The JSON decoders accept keys in any order and skip unknown ones.

const (
	entryReqMagic  = 0xDE
	entryRespMagic = 0xDF
	// maxEntryVersion bounds a version on the wire at the largest
	// integer a JSON number carries exactly, so both encodings decode
	// every accepted value identically.
	maxEntryVersion = 1 << 53
)

// Entry is one get or put exchange: the request fields name the
// repository slot (and, for a put, the allocation to store); the reply
// fields report what the serving snapshot held. A reply decodes into
// the same Entry its request was encoded from, leaving the request
// fields intact. Entry holds no pointers except the template bytes, so
// a warmed Entry round-trips without allocating.
type Entry struct {
	// Template routes the request (empty means the server's sole or
	// "default" template). It aliases the request body or the tmpl
	// scratch — valid until the next Reset or decode.
	Template []byte
	// Class and Bucket name the repository slot.
	Class, Bucket int
	// Type and Count are the allocation: stored by a put request,
	// returned by a get reply that hit.
	Type  cloud.TypeID
	Count int

	// Version is the repository snapshot version that served the
	// request (replies only).
	Version uint64
	// Hit reports a cached allocation (get replies only).
	Hit bool
	// Entries is the repository's entry count after the store (put
	// replies only).
	Entries int

	tmpl []byte
}

// Reset clears the entry for reuse, keeping the template scratch.
func (e *Entry) Reset() {
	tmpl := e.tmpl[:0]
	*e = Entry{tmpl: tmpl}
}

// SetTemplate records the routing template without allocating at
// steady state (the name is copied into reusable scratch).
func (e *Entry) SetTemplate(name string) {
	e.tmpl = append(e.tmpl[:0], name...)
	e.Template = e.tmpl
}

// AppendRequest encodes the get (put false) or put request appended to
// dst.
func (e *Entry) AppendRequest(enc Encoding, put bool, dst []byte) []byte {
	if enc == EncodingBinary {
		lenAt := len(dst)
		dst = append(dst, 0, 0, 0, 0, entryReqMagic, Version)
		dst = appendUvarint(dst, uint64(len(e.Template)))
		dst = append(dst, e.Template...)
		dst = appendZigzag(dst, int64(e.Class))
		dst = appendZigzag(dst, int64(e.Bucket))
		if put {
			dst = appendUvarint(dst, uint64(e.Type))
			dst = appendUvarint(dst, uint64(e.Count))
		}
		binary.LittleEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
		return dst
	}
	dst = append(dst, `{"template":"`...)
	dst = append(dst, e.Template...)
	dst = append(dst, `","class":`...)
	dst = strconv.AppendInt(dst, int64(e.Class), 10)
	dst = append(dst, `,"bucket":`...)
	dst = strconv.AppendInt(dst, int64(e.Bucket), 10)
	if put {
		dst = appendJSONAlloc(dst, e.Type, e.Count)
	}
	return append(dst, '}')
}

// AppendReply encodes the get or put reply appended to dst.
func (e *Entry) AppendReply(enc Encoding, put bool, dst []byte) []byte {
	if enc == EncodingBinary {
		lenAt := len(dst)
		dst = append(dst, 0, 0, 0, 0, entryRespMagic, Version)
		dst = appendUvarint(dst, e.Version)
		switch {
		case put:
			dst = appendUvarint(dst, uint64(e.Entries))
		case e.Hit:
			dst = append(dst, 1)
			dst = appendUvarint(dst, uint64(e.Type))
			dst = appendUvarint(dst, uint64(e.Count))
		default:
			dst = append(dst, 0)
		}
		binary.LittleEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
		return dst
	}
	dst = append(dst, `{"version":`...)
	dst = strconv.AppendUint(dst, e.Version, 10)
	switch {
	case put:
		dst = append(dst, `,"entries":`...)
		dst = strconv.AppendInt(dst, int64(e.Entries), 10)
	case e.Hit:
		dst = append(dst, `,"hit":true`...)
		dst = appendJSONAlloc(dst, e.Type, e.Count)
	default:
		dst = append(dst, `,"hit":false`...)
	}
	return append(dst, '}', '\n')
}

func appendJSONAlloc(dst []byte, typ cloud.TypeID, count int) []byte {
	dst = append(dst, `,"type":"`...)
	dst = append(dst, typ.Instance().Name...)
	dst = append(dst, `","count":`...)
	return strconv.AppendInt(dst, int64(count), 10)
}

// DecodeRequest fills the entry from one get or put request body,
// clearing every field first. Template aliases body.
func (e *Entry) DecodeRequest(enc Encoding, put bool, body []byte) error {
	e.Reset()
	var v Entry
	if enc == EncodingBinary {
		d := bdecoder{b: body}
		if err := d.frameHeader(entryReqMagic); err != nil {
			return err
		}
		tlen, err := d.bounded(maxTemplateLen, "template id length")
		if err != nil {
			return err
		}
		if v.Template, err = d.bytes(int(tlen)); err != nil {
			return err
		}
		if v.Class, err = d.slot(); err != nil {
			return err
		}
		if v.Bucket, err = d.slot(); err != nil {
			return err
		}
		if put {
			if v.Type, v.Count, err = d.alloc(); err != nil {
				return err
			}
		}
		if err := d.done(); err != nil {
			return err
		}
	} else if err := v.decodeJSON(body); err != nil {
		return err
	} else if put && v.Type == cloud.NoType {
		return errors.New("wire: put request names no allocation type")
	}
	e.Template, e.Class, e.Bucket = v.Template, v.Class, v.Bucket
	if put {
		e.Type, e.Count = v.Type, v.Count
	}
	return nil
}

// DecodeReply fills the reply fields from one get or put reply body,
// leaving the request fields (template, class, bucket and a put's
// allocation) as they were.
func (e *Entry) DecodeReply(enc Encoding, put bool, body []byte) error {
	e.Version, e.Hit, e.Entries = 0, false, 0
	if !put {
		e.Type, e.Count = cloud.NoType, 0
	}
	var v Entry
	if enc == EncodingBinary {
		d := bdecoder{b: body}
		if err := d.frameHeader(entryRespMagic); err != nil {
			return err
		}
		var err error
		if v.Version, err = d.bounded(maxEntryVersion, "version"); err != nil {
			return err
		}
		if put {
			n, err := d.bounded(math.MaxInt32, "entry count")
			if err != nil {
				return err
			}
			v.Entries = int(n)
		} else {
			hit, err := d.u8()
			if err != nil {
				return err
			}
			if hit > 1 {
				return fmt.Errorf("wire: hit byte %d is not 0 or 1", hit)
			}
			if v.Hit = hit == 1; v.Hit {
				if v.Type, v.Count, err = d.alloc(); err != nil {
					return err
				}
			}
		}
		if err := d.done(); err != nil {
			return err
		}
	} else if err := v.decodeJSON(body); err != nil {
		return err
	} else if !put && v.Hit && v.Type == cloud.NoType {
		return errors.New("wire: get reply hit names no allocation type")
	}
	e.Version = v.Version
	if put {
		e.Entries = v.Entries
	} else if e.Hit = v.Hit; e.Hit {
		e.Type, e.Count = v.Type, v.Count
	}
	return nil
}

// decodeJSON reads every key the get/put vocabulary knows into e; the
// callers pick out the fields their form carries.
func (e *Entry) decodeJSON(body []byte) error {
	s := scanner{b: body}
	if err := s.expect('{'); err != nil {
		return err
	}
	if c, err := s.peek(); err != nil {
		return err
	} else if c == '}' {
		s.i++
		return s.end()
	}
	for {
		k, err := s.key()
		if err != nil {
			return err
		}
		if err := s.expect(':'); err != nil {
			return err
		}
		switch string(k) {
		case "template":
			t, err := s.key()
			if err != nil {
				return err
			}
			if len(t) > maxTemplateLen {
				return fmt.Errorf("wire: template id of %d bytes exceeds limit %d", len(t), maxTemplateLen)
			}
			e.Template = t
		case "class":
			if e.Class, err = s.integer(math.MinInt32, math.MaxInt32); err != nil {
				return err
			}
		case "bucket":
			if e.Bucket, err = s.integer(math.MinInt32, math.MaxInt32); err != nil {
				return err
			}
		case "type":
			name, err := s.key()
			if err != nil {
				return err
			}
			id, ok := typeIDForName(name)
			if !ok {
				return fmt.Errorf("wire: unknown allocation type %q", name)
			}
			e.Type = id
		case "count":
			if e.Count, err = s.integer(0, 1<<20); err != nil {
				return err
			}
		case "version":
			v, err := s.integer(0, maxEntryVersion)
			if err != nil {
				return err
			}
			e.Version = uint64(v)
		case "hit":
			if e.Hit, err = s.boolean(); err != nil {
				return err
			}
		case "entries":
			if e.Entries, err = s.integer(0, math.MaxInt32); err != nil {
				return err
			}
		default:
			if err := s.skipValue(); err != nil {
				return err
			}
		}
		c, err := s.peek()
		if err != nil {
			return err
		}
		s.i++
		if c == '}' {
			return s.end()
		}
		if c != ',' {
			return fmt.Errorf("wire: expected ',' or '}' at offset %d", s.i-1)
		}
	}
}

// integer parses a JSON number that must be an integer in [lo, hi].
func (s *scanner) integer(lo, hi int) (int, error) {
	v, err := s.number()
	if err != nil {
		return 0, err
	}
	if v != math.Trunc(v) || v < float64(lo) || v > float64(hi) {
		return 0, fmt.Errorf("wire: %v is not an integer in [%d, %d]", v, lo, hi)
	}
	return int(v), nil
}

// end verifies only whitespace follows the closing brace.
func (s *scanner) end() error {
	s.ws()
	if s.i != len(s.b) {
		return fmt.Errorf("wire: %d trailing bytes after JSON object", len(s.b)-s.i)
	}
	return nil
}

// slot reads a zigzag class or bucket bounded to the int32 range.
func (d *bdecoder) slot() (int, error) {
	v, err := d.zigzag()
	if err != nil {
		return 0, err
	}
	if v < math.MinInt32 || v > math.MaxInt32 {
		return 0, fmt.Errorf("wire: slot index %d out of range", v)
	}
	return int(v), nil
}

// alloc reads a catalog type id (NoType rejected) and an instance
// count.
func (d *bdecoder) alloc() (cloud.TypeID, int, error) {
	typ, err := d.uvarint()
	if err != nil {
		return 0, 0, err
	}
	if typ == 0 || typ > uint64(len(catalog)) {
		return 0, 0, fmt.Errorf("wire: unknown allocation type id %d", typ)
	}
	count, err := d.bounded(1<<20, "allocation count")
	if err != nil {
		return 0, 0, err
	}
	return cloud.TypeID(typ), int(count), nil
}

// bounded reads a uvarint no larger than max.
func (d *bdecoder) bounded(max uint64, what string) (uint64, error) {
	v, err := d.uvarint()
	if err == nil && v > max {
		err = fmt.Errorf("wire: %s %d exceeds limit %d", what, v, max)
	}
	return v, err
}
