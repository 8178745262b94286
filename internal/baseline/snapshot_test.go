package baseline

import (
	"encoding/json"
	"math/rand"
	"testing"

	"github.com/smartdpss/smartdpss/internal/jsonenc/jsonenctest"
)

// TestEstStateEncoderMatchesMarshal fills the Impatient and Lyapunov
// checkpoint states through reflection and requires their shared append
// encoder to write exactly json.Marshal's bytes for each, so a field
// added to either state type without its encoder fails here.
func TestEstStateEncoderMatchesMarshal(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		var imp impatientState
		var lya lyapunovState
		jsonenctest.Fill(r, &imp)
		jsonenctest.Fill(r, &lya)
		for _, c := range []struct {
			state any
			got   func() ([]byte, error)
		}{
			{&imp, func() ([]byte, error) { return appendEstState(nil, imp.Est) }},
			{&lya, func() ([]byte, error) { return appendEstState(nil, lya.Est) }},
		} {
			want, err := json.Marshal(c.state)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.got()
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("%T encoding differs:\n got: %s\nwant: %s", c.state, got, want)
			}
		}
	}
}
