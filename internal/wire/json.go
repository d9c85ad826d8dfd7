package wire

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/cloud"
)

// JSON compatibility codec. The decision vocabulary is tiny —
// {"template":...,"bucket":...,"signature":[...]} /
// {"signatures":[[...]]} requests and
// {"version":...,"results":[{...}]} responses — and is parsed and
// emitted by hand into caller-owned scratch: encoding/json allocates
// per token, and the decision path must not allocate at steady state.
// The response bytes are byte-compatible with pre-wire dejavud, so a
// rolling upgrade can mix old and new peers on the JSON path.

// DecodeJSON fills the request from a JSON body. The request's
// buffers are reused; no allocation happens once they have warmed up
// to the workload's batch size. Template aliases body.
func (r *Request) DecodeJSON(body []byte) error {
	r.Reset()
	s := scanner{b: body}
	if err := s.expect('{'); err != nil {
		return err
	}
	if c, err := s.peek(); err != nil {
		return err
	} else if c == '}' {
		return errors.New("wire: request names no signature")
	}
	sawBatch := false
	for {
		k, err := s.key()
		if err != nil {
			return err
		}
		if err := s.expect(':'); err != nil {
			return err
		}
		switch string(k) { // compile-time optimized: no []byte->string alloc in a switch
		case "signature":
			if r.Single || sawBatch {
				return errors.New(`wire: "signature" and "signatures" are mutually exclusive and single-use`)
			}
			r.Single = true
			if err := r.appendJSONRow(&s); err != nil {
				return err
			}
		case "signatures":
			if r.Single || sawBatch {
				return errors.New(`wire: "signature" and "signatures" are mutually exclusive and single-use`)
			}
			sawBatch = true
			if err := s.expect('['); err != nil {
				return err
			}
			c, err := s.peek()
			if err != nil {
				return err
			}
			if c == ']' {
				s.i++
				break
			}
			for {
				if err := r.appendJSONRow(&s); err != nil {
					return err
				}
				c, err := s.peek()
				if err != nil {
					return err
				}
				s.i++
				if c == ']' {
					break
				}
				if c != ',' {
					return fmt.Errorf("wire: expected ',' or ']' at offset %d", s.i-1)
				}
			}
		case "bucket":
			if r.Bucket, err = s.integer(0, 1<<20); err != nil {
				return err
			}
		case "template":
			t, err := s.key()
			if err != nil {
				return err
			}
			if len(t) > maxTemplateLen {
				return fmt.Errorf("wire: template id of %d bytes exceeds limit %d", len(t), maxTemplateLen)
			}
			r.Template = t
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
			break
		}
		if c != ',' {
			return fmt.Errorf("wire: expected ',' or '}' at offset %d", s.i-1)
		}
	}
	if r.Rows() == 0 {
		return errors.New("wire: request contains no signatures")
	}
	return s.end()
}

// appendJSONRow parses one signature array into the next row. An empty
// row is rejected, as the binary decoder rejects a zero-width batch.
func (r *Request) appendJSONRow(s *scanner) (err error) {
	start := len(r.vals)
	if r.vals, err = s.numberRow(r.vals); err != nil {
		return err
	}
	if len(r.vals) == start {
		return errors.New("wire: empty signature row")
	}
	r.ends = append(r.ends, len(r.vals))
	return nil
}

// AppendJSON encodes the request as the JSON vocabulary appended to
// dst. Batches of one use the batched "signatures" form too — the
// server accepts both and the reply envelope is identical.
func (r *Request) AppendJSON(dst []byte) []byte {
	dst = append(dst, '{')
	if len(r.Template) > 0 {
		dst = append(dst, `"template":"`...)
		dst = append(dst, r.Template...)
		dst = append(dst, `",`...)
	}
	dst = append(dst, `"bucket":`...)
	dst = strconv.AppendInt(dst, int64(r.Bucket), 10)
	dst = append(dst, `,"signatures":[`...)
	for i := 0; i < r.Rows(); i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		for j, v := range r.Row(i) {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
		}
		dst = append(dst, ']')
	}
	return append(dst, ']', '}')
}

// AppendJSON encodes the response appended to dst, byte-compatible
// with the pre-wire dejavud reply envelope.
func (r *Response) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"version":`...)
	dst = strconv.AppendUint(dst, r.Version, 10)
	dst = append(dst, `,"results":[`...)
	for i := range r.Results {
		if i > 0 {
			dst = append(dst, ',')
		}
		d := &r.Results[i]
		dst = append(dst, `{"class":`...)
		dst = strconv.AppendInt(dst, int64(d.Class), 10)
		dst = append(dst, `,"certainty":`...)
		dst = strconv.AppendFloat(dst, d.Certainty, 'g', -1, 64)
		dst = append(dst, `,"unforeseen":`...)
		dst = strconv.AppendBool(dst, d.Unforeseen)
		if r.Lookup {
			dst = append(dst, `,"hit":`...)
			dst = strconv.AppendBool(dst, d.Hit)
			if d.Hit {
				dst = append(dst, `,"type":"`...)
				dst = append(dst, d.Type.Instance().Name...)
				dst = append(dst, `","count":`...)
				dst = strconv.AppendInt(dst, int64(d.Count), 10)
			}
		}
		dst = append(dst, '}')
	}
	return append(dst, ']', '}')
}

// DecodeJSON fills the response from a JSON reply envelope, reusing
// the Results buffer. Lookup is inferred from the presence of "hit"
// fields.
func (r *Response) DecodeJSON(body []byte) error {
	r.Reset()
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
		case "version":
			v, err := s.integer(0, maxEntryVersion)
			if err != nil {
				return err
			}
			r.Version = uint64(v)
		case "results":
			if err := r.decodeJSONResults(&s); err != nil {
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

func (r *Response) decodeJSONResults(s *scanner) error {
	if err := s.expect('['); err != nil {
		return err
	}
	c, err := s.peek()
	if err != nil {
		return err
	}
	if c == ']' {
		s.i++
		return nil
	}
	for {
		r.Results = append(r.Results, Decision{})
		if err := r.decodeJSONDecision(s, &r.Results[len(r.Results)-1]); err != nil {
			return err
		}
		c, err := s.peek()
		if err != nil {
			return err
		}
		s.i++
		if c == ']' {
			return nil
		}
		if c != ',' {
			return fmt.Errorf("wire: expected ',' or ']' at offset %d", s.i-1)
		}
	}
}

func (r *Response) decodeJSONDecision(s *scanner, d *Decision) error {
	if err := s.expect('{'); err != nil {
		return err
	}
	if c, err := s.peek(); err != nil {
		return err
	} else if c == '}' {
		s.i++
		return nil
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
		case "class":
			if d.Class, err = s.integer(-1, 1<<20); err != nil {
				return err
			}
		case "certainty":
			if d.Certainty, err = s.number(); err != nil {
				return err
			}
		case "unforeseen":
			if d.Unforeseen, err = s.boolean(); err != nil {
				return err
			}
		case "hit":
			if d.Hit, err = s.boolean(); err != nil {
				return err
			}
			r.Lookup = true
		case "type":
			name, err := s.key()
			if err != nil {
				return err
			}
			id, ok := typeIDForName(name)
			if !ok {
				return fmt.Errorf("wire: unknown allocation type %q", name)
			}
			d.Type = id
		case "count":
			if d.Count, err = s.integer(0, 1<<20); err != nil {
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
			// The encoders write type and count exactly on hit rows;
			// anything else would not survive a re-encode.
			if d.Hit != (d.Type != 0) || !d.Hit && d.Count != 0 {
				return errors.New("wire: decision carries type or count without a hit")
			}
			return nil
		}
		if c != ',' {
			return fmt.Errorf("wire: expected ',' or '}' at offset %d", s.i-1)
		}
	}
}

// catalog is fetched once: cloud.Catalog() builds a fresh slice per
// call, which would put an allocation on the decode path.
var catalog = cloud.Catalog()

// typeIDForName resolves an instance-type name against the catalog
// without allocating (the name stays []byte).
func typeIDForName(name []byte) (cloud.TypeID, bool) {
	for _, t := range catalog {
		if string(name) == t.Name {
			return t.ID(), true
		}
	}
	return 0, false
}
