package wire

import (
	"errors"
	"fmt"
	"strconv"
)

// scanner is a minimal JSON reader over one message body.
type scanner struct {
	b []byte
	i int
}

var errTruncated = errors.New("wire: truncated body")

func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

func (s *scanner) expect(c byte) error {
	s.ws()
	if s.i >= len(s.b) {
		return errTruncated
	}
	if s.b[s.i] != c {
		return fmt.Errorf("wire: expected %q at offset %d, found %q", c, s.i, s.b[s.i])
	}
	s.i++
	return nil
}

// peek returns the next non-space byte without consuming it.
func (s *scanner) peek() (byte, error) {
	s.ws()
	if s.i >= len(s.b) {
		return 0, errTruncated
	}
	return s.b[s.i], nil
}

// key reads a JSON string, returning the raw bytes between the quotes.
// Keys in the decision vocabulary carry no escapes; escaped sequences
// are validated but kept verbatim (they simply won't match any known
// key).
func (s *scanner) key() ([]byte, error) {
	if err := s.expect('"'); err != nil {
		return nil, err
	}
	start := s.i
	for s.i < len(s.b) {
		switch c := s.b[s.i]; {
		case c == '"':
			k := s.b[start:s.i]
			s.i++
			return k, nil
		case c == '\\':
			if err := s.escape(); err != nil {
				return nil, err
			}
		case c < 0x20:
			return nil, fmt.Errorf("wire: control character in string at offset %d", s.i)
		default:
			s.i++
		}
	}
	return nil, errTruncated
}

// escape consumes one backslash escape sequence of a JSON string.
func (s *scanner) escape() error {
	if s.i+1 >= len(s.b) {
		return errTruncated
	}
	switch s.b[s.i+1] {
	case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		s.i += 2
		return nil
	case 'u':
		if s.i+6 > len(s.b) {
			return errTruncated
		}
		for _, h := range s.b[s.i+2 : s.i+6] {
			if !('0' <= h && h <= '9' || 'a' <= h && h <= 'f' || 'A' <= h && h <= 'F') {
				return fmt.Errorf("wire: malformed \\u escape at offset %d", s.i)
			}
		}
		s.i += 6
		return nil
	}
	return fmt.Errorf("wire: malformed escape at offset %d", s.i)
}

// number scans one JSON number (RFC 8259: -?(0|[1-9][0-9]*)(.[0-9]+)?
// ([eE][+-]?[0-9]+)?) and converts it with strconv, which rounds
// correctly. Tokens of up to 32 bytes (every shortest-form float64)
// convert on the stack, so parsing does not allocate. Magnitudes
// beyond float64 parse to ±Inf.
func (s *scanner) number() (float64, error) {
	s.ws()
	start := s.i
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	switch {
	case s.i < len(s.b) && s.b[s.i] == '0':
		s.i++
	case !s.digits():
		return 0, fmt.Errorf("wire: malformed number at offset %d", s.i)
	}
	if s.i < len(s.b) && s.b[s.i] == '.' {
		s.i++
		if !s.digits() {
			return 0, fmt.Errorf("wire: malformed fraction at offset %d", s.i)
		}
	}
	if s.i < len(s.b) && (s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		s.i++
		if s.i < len(s.b) && (s.b[s.i] == '-' || s.b[s.i] == '+') {
			s.i++
		}
		if !s.digits() {
			return 0, fmt.Errorf("wire: malformed exponent at offset %d", s.i)
		}
	}
	// The token is well formed, so the only error ParseFloat can
	// report is ErrRange, which comes with the ±Inf (or 0) result.
	f, _ := strconv.ParseFloat(string(s.b[start:s.i]), 64)
	return f, nil
}

// digits consumes a run of decimal digits, reporting whether there
// was at least one.
func (s *scanner) digits() bool {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i > start
}

// numberRow parses a JSON array of numbers, appending to dst.
func (s *scanner) numberRow(dst []float64) ([]float64, error) {
	if err := s.expect('['); err != nil {
		return dst, err
	}
	c, err := s.peek()
	if err != nil {
		return dst, err
	}
	if c == ']' {
		s.i++
		return dst, nil
	}
	for {
		v, err := s.number()
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
		c, err := s.peek()
		if err != nil {
			return dst, err
		}
		s.i++
		switch c {
		case ',':
		case ']':
			return dst, nil
		default:
			return dst, fmt.Errorf("wire: expected ',' or ']' at offset %d", s.i-1)
		}
	}
}

// maxSkipDepth bounds the nesting of a skipped value, so a hostile
// body cannot drive the recursive skip into deep stack growth.
const maxSkipDepth = 32

// skipValue consumes and validates one JSON value of any shape (for
// unknown keys).
func (s *scanner) skipValue() error { return s.skip(0) }

func (s *scanner) skip(depth int) error {
	c, err := s.peek()
	if err != nil {
		return err
	}
	switch c {
	case '"':
		_, err := s.key()
		return err
	case '{', '[':
		if depth == maxSkipDepth {
			return fmt.Errorf("wire: value nested deeper than %d at offset %d", maxSkipDepth, s.i)
		}
		s.i++
		closer := byte(']')
		if c == '{' {
			closer = '}'
		}
		if n, err := s.peek(); err != nil {
			return err
		} else if n == closer {
			s.i++
			return nil
		}
		for {
			if c == '{' {
				if _, err := s.key(); err != nil {
					return err
				}
				if err := s.expect(':'); err != nil {
					return err
				}
			}
			if err := s.skip(depth + 1); err != nil {
				return err
			}
			n, err := s.peek()
			if err != nil {
				return err
			}
			s.i++
			if n == closer {
				return nil
			}
			if n != ',' {
				return fmt.Errorf("wire: expected ',' or %q at offset %d", closer, s.i-1)
			}
		}
	case 't':
		return s.literal("true")
	case 'f':
		return s.literal("false")
	case 'n':
		return s.literal("null")
	default:
		_, err := s.number()
		return err
	}
}

// literal consumes an exact keyword, byte-verified — a blind index
// advance would let malformed bodies like {"x":truu} realign on the
// following comma and parse as valid.
func (s *scanner) literal(want string) error {
	if len(s.b)-s.i < len(want) {
		return errTruncated
	}
	if string(s.b[s.i:s.i+len(want)]) != want {
		return fmt.Errorf("wire: malformed literal at offset %d", s.i)
	}
	s.i += len(want)
	return nil
}

// boolean parses true/false.
func (s *scanner) boolean() (bool, error) {
	c, err := s.peek()
	if err != nil {
		return false, err
	}
	switch c {
	case 't':
		return true, s.literal("true")
	case 'f':
		return false, s.literal("false")
	}
	return false, fmt.Errorf("wire: expected boolean at offset %d", s.i)
}
