package sim

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/smartdpss/smartdpss/internal/jsonenc/jsonenctest"
)

// TestCheckpointEncoderMatchesMarshal fills every exported field of a
// Checkpoint — battery, market, backlog, fleet and the session totals —
// through reflection and requires the append encoder to write exactly
// json.Marshal's bytes, so a field added to any state type without its
// encoder fails here.
func TestCheckpointEncoderMatchesMarshal(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		var cp Checkpoint
		jsonenctest.Fill(r, &cp)
		want, err := json.Marshal(&cp)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cp.appendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("checkpoint encoding differs:\n got: %s\nwant: %s", got, want)
		}
	}
}

// rawController is a Snapshotter whose state is a fixed blob.
type rawController struct {
	scriptController
	state []byte
}

func (c *rawController) AppendState(dst []byte) ([]byte, error) { return append(dst, c.state...), nil }
func (c *rawController) RestoreState([]byte) error              { return nil }

// TestNoisyStateEncoderMatchesMarshal does the same for the noise
// wrapper's state, with the inner controller's blob appended in place.
func TestNoisyStateEncoderMatchesMarshal(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 3000; i++ {
		var st noisyState
		jsonenctest.Fill(r, &st)
		want, err := json.Marshal(&st)
		if err != nil {
			t.Fatal(err)
		}
		n := &NoisyController{inner: &rawController{state: st.Inner}, seed: st.Seed, draws: st.Draws}
		got, err := n.AppendState(nil)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("noise state encoding differs:\n got: %s\nwant: %s", got, want)
		}
	}
}

// TestSnapshotRejectsNonFinite: a NaN or infinity anywhere in the state
// fails Snapshot, as it fails json.Marshal of the same checkpoint.
func TestSnapshotRejectsNonFinite(t *testing.T) {
	set := flatSet(4, 1.0, 0.4, 0.2, 40, 50)
	for _, tc := range []struct {
		name   string
		poison func(*Session)
	}{
		{"summary NaN", func(s *Session) { s.tot.TotalCostUSD = math.NaN() }},
		{"stream -Inf", func(s *Session) { s.tot.BacklogMeanMWh = math.Inf(-1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSession(testConfig(), &snapController{scriptController{name: "nf", gbef: 3}}, set.Horizon(), nil)
			if err != nil {
				t.Fatal(err)
			}
			for s.Slot() < 2 {
				if _, err := s.Step(InputAt(set, s.Slot())); err != nil {
					t.Fatal(err)
				}
				if _, err := s.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := s.Snapshot(); err != nil {
				t.Fatalf("clean snapshot: %v", err)
			}
			tc.poison(s)
			cp, err := s.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := json.Marshal(&cp); err == nil {
				t.Fatal("json.Marshal accepted the poisoned checkpoint")
			}
			if blob, err := s.Snapshot(); err == nil {
				t.Errorf("Snapshot encoded a non-finite state: %s", blob)
			}
		})
	}
}

// TestNoiseDrawBoundIsExact: a noisy session run to its horizon
// consumes exactly maxNoiseDraws draws, so the restore bound is what a
// plan consumes and not a loose ceiling; a horizon that ends mid-interval
// covers the short last interval.
func TestNoiseDrawBoundIsExact(t *testing.T) {
	for _, horizon := range []int{8, 10} {
		noisy, err := WithObservationNoise(&scriptController{name: "n", gbef: 3}, 1, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		set := flatSet(horizon, 1, 0.2, 0.3, 40, 50)
		if _, err := Run(testConfig(), set, noisy); err != nil {
			t.Fatal(err)
		}
		if want := maxNoiseDraws(horizon, noisy.CoarseSlots()); noisy.draws != want {
			t.Errorf("horizon %d: %d draws, maxNoiseDraws = %d", horizon, noisy.draws, want)
		}
	}
}

// TestRestoreBoundsNoiseDraws: the draw count a noise state may replay
// is bounded by what the session's horizon consumes, four draws per
// fine slot and four per coarse interval.
func TestRestoreBoundsNoiseDraws(t *testing.T) {
	inner := &snapController{scriptController{name: "n", gbef: 3}}
	noisy, err := WithObservationNoise(inner, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSession(testConfig(), noisy, 10, nil); err != nil {
		t.Fatal(err)
	}
	// Horizon 10 in coarse intervals of 4: 4·10 + 4·3 draws at most.
	if noisy.maxDraws != 52 {
		t.Fatalf("maxDraws = %d, want 52", noisy.maxDraws)
	}
	for draws, ok := range map[uint64]bool{0: true, 52: true, 53: false, math.MaxUint64: false} {
		blob, err := json.Marshal(noisyState{Seed: 1, Draws: draws, Inner: json.RawMessage(`{"Outcomes":0}`)})
		if err != nil {
			t.Fatal(err)
		}
		err = noisy.RestoreState(blob)
		if ok && err != nil {
			t.Errorf("draws %d rejected: %v", draws, err)
		}
		if !ok && !errors.Is(err, ErrSnapshotMismatch) {
			t.Errorf("draws %d: err = %v, want ErrSnapshotMismatch", draws, err)
		}
	}
}
