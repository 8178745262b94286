package jsonenc_test

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"github.com/smartdpss/smartdpss/internal/jsonenc"
	"github.com/smartdpss/smartdpss/internal/jsonenc/jsonenctest"
)

// sample has one field of every kind the encoder writes, so a random
// fill compares every method against encoding/json at once.
type sample struct {
	F   float64         `json:"f"`
	I   int             `json:"i"`
	I64 int64           `json:"i64"`
	U   uint64          `json:"u"`
	B   bool            `json:"b"`
	S   string          `json:"s"`
	Raw json.RawMessage `json:"raw,omitempty"`
	In  []struct {
		G float64 `json:"g"`
	} `json:"in,omitempty"`
}

func (s *sample) appendJSON(dst []byte) ([]byte, error) {
	e := jsonenc.NewEncoder(dst)
	e.Open()
	e.Key("f").Float(s.F)
	e.Key("i").Int(s.I)
	e.Key("i64").Int64(s.I64)
	e.Key("u").Uint64(s.U)
	e.Key("b").Bool(s.B)
	e.Key("s").String(s.S)
	if len(s.Raw) > 0 {
		e.Key("raw").Raw(s.Raw)
	}
	if len(s.In) > 0 {
		e.Key("in").OpenArray()
		for _, in := range s.In {
			e.Open()
			e.Key("g").Float(in.G)
			e.Close()
		}
		e.CloseArray()
	}
	e.Close()
	return e.Bytes()
}

// TestEncoderMatchesMarshal: randomly filled values, floats from every
// formatting class, encode to exactly json.Marshal's bytes — appended
// after an existing prefix, which must stay untouched.
func TestEncoderMatchesMarshal(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		var s sample
		jsonenctest.Fill(r, &s)
		want, err := json.Marshal(&s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.appendJSON([]byte("prefix"))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "prefix"+string(want) {
			t.Fatalf("encoding differs:\n got: %s\nwant: prefix%s", got, want)
		}
	}
}

// TestFloatBoundaries pins the exponent-form cutoffs and negative zero
// at their edges, where a random draw rarely lands.
func TestFloatBoundaries(t *testing.T) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0),
		-1e-7, 1e-9, 1e-10, 5e-324, math.MaxFloat64, -math.MaxFloat64, 123456789012345680000,
	} {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		e := jsonenc.NewEncoder(nil)
		e.Float(v)
		got, err := e.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("Float(%g) = %s, want %s", v, got, want)
		}
	}
}

// TestNonFiniteFails: NaN and ±Inf fail the encode, as they fail
// json.Marshal, and the first error sticks.
func TestNonFiniteFails(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := json.Marshal(v); err == nil {
			t.Fatalf("json.Marshal(%g) succeeded", v)
		}
		e := jsonenc.NewEncoder(nil)
		e.Open()
		e.Key("x").Float(v)
		e.Key("y").Int(1)
		e.Close()
		if got, err := e.Bytes(); err == nil {
			t.Errorf("Float(%g) encoded as %s, want an error", v, got)
		}
	}
}
