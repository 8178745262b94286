package baseline

import (
	"encoding/json"
	"math/rand"
	"testing"

	"github.com/smartdpss/smartdpss/internal/jsonenc/jsonenctest"
)

// TestEstStateEncoderMatchesMarshal fills the Impatient checkpoint state
// (Lyapunov's too, through the embedded Impatient) through reflection
// and requires AppendState to write exactly json.Marshal's bytes, so a
// field added to the state type without its encoder fails here.
func TestEstStateEncoderMatchesMarshal(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var imp Impatient
	for i := 0; i < 3000; i++ {
		var s impatientState
		jsonenctest.Fill(r, &s)
		imp.est.Restore(s.Est)
		want, err := json.Marshal(&s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := imp.AppendState(nil)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("encoding differs:\n got: %s\nwant: %s", got, want)
		}
	}
}
