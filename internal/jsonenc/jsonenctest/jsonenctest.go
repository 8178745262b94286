// Package jsonenctest fills values through reflection for the parity
// tests of jsonenc-based encoders: encode a filled value with the
// encoder under test and with encoding/json, and the bytes must agree.
// Because Fill reaches every exported field, a field added to a state
// type without its encoder makes such a test fail.
package jsonenctest

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strconv"
)

// Float returns a float64 from the classes encoding/json formats
// differently: zero and negative zero, integers, values below 1e-6 and
// from 1e21 (exponent form), ordinary fractions, and negatives of all.
func Float(r *rand.Rand) float64 {
	var v float64
	switch r.Intn(7) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		v = float64(r.Intn(100000))
	case 3:
		v = r.Float64() * math.Pow(10, -float64(6+r.Intn(300)))
	case 4:
		v = (1 + 9*r.Float64()) * math.Pow(10, float64(21+r.Intn(280)))
	case 5:
		v = r.Float64() * math.Pow(10, float64(r.Intn(27)-6))
	default:
		v = math.Float64frombits(r.Uint64())
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 1.5
		}
	}
	if r.Intn(3) == 0 {
		v = -v
	}
	return v
}

// strs are strings that take every path of a JSON string encoder:
// plain, empty, quotes and backslashes, control characters, HTML
// metacharacters, non-ASCII, invalid UTF-8 and the JavaScript line
// separators.
var strs = []string{
	"", "SmartDPSS", "SmartDPSS+noise", "lyapunov",
	`a"b\c`, "tab\tnew\nline\x01", "<b>&amp;</b>", "héllo", "\xff\xfe", "  ", "\x7f",
}

// Fill sets every exported field reachable from ptr, which must be a
// non-nil pointer, to a random value: floats from Float, integers
// including zero and negatives, both booleans, strings from a set that
// covers every escaping path, and slices of zero to three elements, so
// omitempty fields are both omitted and written. A json.RawMessage gets
// a small compact object, as a nested encoder would write it.
func Fill(r *rand.Rand, ptr any) {
	fill(r, reflect.ValueOf(ptr).Elem())
}

var rawMessage = reflect.TypeOf(json.RawMessage(nil))

func fill(r *rand.Rand, v reflect.Value) {
	if v.Type() == rawMessage {
		if r.Intn(3) == 0 {
			v.SetBytes(nil)
		} else {
			v.SetBytes([]byte(`{"k":` + strconv.Itoa(r.Intn(1000)-500) + `}`))
		}
		return
	}
	switch v.Kind() {
	case reflect.Float64:
		v.SetFloat(Float(r))
	case reflect.Int, reflect.Int64:
		switch r.Intn(3) {
		case 0:
			v.SetInt(0)
		case 1:
			v.SetInt(int64(r.Intn(2000) - 1000))
		default:
			v.SetInt(r.Int63() - r.Int63())
		}
	case reflect.Uint64:
		if r.Intn(3) == 0 {
			v.SetUint(0)
		} else {
			v.SetUint(r.Uint64() >> uint(r.Intn(64)))
		}
	case reflect.Bool:
		v.SetBool(r.Intn(2) == 0)
	case reflect.String:
		v.SetString(strs[r.Intn(len(strs))])
	case reflect.Slice:
		n := r.Intn(4)
		if n == 0 {
			v.Set(reflect.Zero(v.Type()))
			return
		}
		s := reflect.MakeSlice(v.Type(), n, n)
		for i := 0; i < n; i++ {
			fill(r, s.Index(i))
		}
		v.Set(s)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(r, v.Field(i))
			}
		}
	default:
		panic("jsonenctest: cannot fill a " + v.Type().String())
	}
}
