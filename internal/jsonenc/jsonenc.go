// Package jsonenc appends JSON to a byte slice without reflection,
// writing exactly the bytes encoding/json's Marshal writes for the same
// values: shortest round-trip floats in 'f' form, switching to 'e' form
// below 1e-6 and from 1e21 with a bare exponent, negative zero kept,
// HTML-safe strings, and an error for NaN and ±Inf. The session
// checkpoint encoders build on it; encoding/json stays the decoder and,
// in tests, the oracle.
package jsonenc

import (
	"encoding/json"
	"errors"
	"math"
	"strconv"
)

// Encoder appends one JSON value to a buffer. Separators are implicit:
// every value or key that follows another inside an object or array
// gets its comma. After the first error every call is a no-op, and
// Bytes reports that error.
type Encoder struct {
	buf  []byte
	base int // len(buf) when encoding began: no separator before the first value
	err  error
}

// NewEncoder returns an Encoder that appends to dst.
func NewEncoder(dst []byte) Encoder {
	return Encoder{buf: dst, base: len(dst)}
}

// Bytes returns the buffer with the encoded value appended, or the
// first error.
func (e *Encoder) Bytes() ([]byte, error) {
	if e.err != nil {
		return nil, e.err
	}
	return e.buf, nil
}

// sep appends the comma a value or key needs when it is not the first
// in its object or array, nor a value right after its key.
func (e *Encoder) sep() {
	if n := len(e.buf); n > e.base {
		switch e.buf[n-1] {
		case '{', '[', ':':
		default:
			e.buf = append(e.buf, ',')
		}
	}
}

// Open begins an object.
func (e *Encoder) Open() {
	if e.err == nil {
		e.sep()
		e.buf = append(e.buf, '{')
	}
}

// Close ends an object.
func (e *Encoder) Close() {
	if e.err == nil {
		e.buf = append(e.buf, '}')
	}
}

// OpenArray begins an array.
func (e *Encoder) OpenArray() {
	if e.err == nil {
		e.sep()
		e.buf = append(e.buf, '[')
	}
}

// CloseArray ends an array.
func (e *Encoder) CloseArray() {
	if e.err == nil {
		e.buf = append(e.buf, ']')
	}
}

// Key writes an object key and returns e, so a field reads as one
// call chain: e.Key("n").Int(n). name is a struct tag's field name and
// is written unescaped, so it must be plain ASCII with nothing to
// escape.
func (e *Encoder) Key(name string) *Encoder {
	if e.err == nil {
		e.sep()
		e.buf = append(e.buf, '"')
		e.buf = append(e.buf, name...)
		e.buf = append(e.buf, '"', ':')
	}
	return e
}

// Float writes a float64 as encoding/json does, or records an error for
// NaN and ±Inf, which JSON cannot carry.
func (e *Encoder) Float(v float64) {
	if e.err != nil {
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		e.err = errors.New("jsonenc: unsupported value: " + strconv.FormatFloat(v, 'g', -1, 64))
		return
	}
	e.sep()
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(e.buf, v, format, -1, 64)
	if format == 'e' {
		// A one-digit negative exponent loses its padding: e-09 → e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	e.buf = b
}

// Int writes an int.
func (e *Encoder) Int(v int) { e.Int64(int64(v)) }

// Int64 writes an int64.
func (e *Encoder) Int64(v int64) {
	if e.err == nil {
		e.sep()
		e.buf = strconv.AppendInt(e.buf, v, 10)
	}
}

// Uint64 writes a uint64.
func (e *Encoder) Uint64(v uint64) {
	if e.err == nil {
		e.sep()
		e.buf = strconv.AppendUint(e.buf, v, 10)
	}
}

// Bool writes a bool.
func (e *Encoder) Bool(v bool) {
	if e.err == nil {
		e.sep()
		e.buf = strconv.AppendBool(e.buf, v)
	}
}

// String writes a string. Printable ASCII without quotes, backslashes or
// HTML metacharacters — every name and digest a checkpoint carries — is
// copied as is; anything else is escaped by encoding/json itself, so
// the rare escaped string is exact by construction.
func (e *Encoder) String(s string) {
	if e.err != nil {
		return
	}
	e.sep()
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, err := json.Marshal(s)
			if err != nil {
				e.err = err
				return
			}
			e.buf = append(e.buf, quoted...)
			return
		}
	}
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, s...)
	e.buf = append(e.buf, '"')
}

// Raw writes an already-encoded JSON value verbatim. It must be compact
// and hold no string that encoding/json would escape, which is what
// this package's own output is.
func (e *Encoder) Raw(v []byte) {
	if e.err == nil {
		e.sep()
		e.buf = append(e.buf, v...)
	}
}
