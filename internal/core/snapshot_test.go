package core

import (
	"encoding/json"
	"math/rand"
	"testing"

	"github.com/smartdpss/smartdpss/internal/jsonenc"
	"github.com/smartdpss/smartdpss/internal/jsonenc/jsonenctest"
)

// TestControllerStateEncoderMatchesMarshal fills every field of the
// controller's checkpoint state through reflection and requires the
// append encoder to write exactly json.Marshal's bytes, so a field added
// to controllerState without its encoder fails here.
func TestControllerStateEncoderMatchesMarshal(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		var st controllerState
		jsonenctest.Fill(r, &st)
		want, err := json.Marshal(&st)
		if err != nil {
			t.Fatal(err)
		}
		e := jsonenc.NewEncoder(nil)
		st.appendJSON(&e)
		got, err := e.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("controller state encoding differs:\n got: %s\nwant: %s", got, want)
		}
	}
}
