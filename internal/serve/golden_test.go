package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/smartdpss/smartdpss/internal/engine"
)

// update regenerates the encoding goldens instead of diffing against
// them:
//
//	go test ./internal/serve -run TestEncodingsPinned -update
//
// Regenerate ONLY when an output change is intended and reviewed: the
// goldens exist so that rewrites of the exposition and checkpoint
// encoders reproduce these bytes.
var update = flag.Bool("update", false, "rewrite testdata/golden snapshots")

// goldenDays is the horizon of the pinned sessions: long enough for the
// fleet arm to start units and for SmartDPSS to build a backlog.
const goldenDays = 3

// streamArm is one streaming policy configuration of the pinned set: the
// arms dpss-serve runs, as the stream benchmark cycles through them.
type streamArm struct {
	name   string
	policy engine.Policy
	opts   engine.Options
}

func streamArms() []streamArm {
	def := engine.DefaultOptions()
	fleet := engine.DefaultOptions()
	fleet.CommitWindow = 12
	fleet.Fleet = []engine.UnitSpec{
		{CapacityMW: 0.5, MinLoadFrac: 0.3, FuelUSDPerMWh: 38, StartupUSD: 20, CO2KgPerMWh: 700},
		{CapacityMW: 0.25, MinLoadFrac: 0.2, FuelUSDPerMWh: 45, StartupUSD: 10, CO2KgPerMWh: 500},
		{CapacityMW: 0.25, MinLoadFrac: 0.2, FuelUSDPerMWh: 52, FuelQuadUSD: 4, CO2KgPerMWh: 400},
		{CapacityMW: 0.1, FuelUSDPerMWh: 60, StartupLagSlots: 1, CO2KgPerMWh: 300},
	}
	noise := engine.DefaultOptions()
	noise.ObservationNoise = 0.5
	noise.NoiseSeed = 7
	return []streamArm{
		{"smartdpss", engine.PolicySmartDPSS, def},
		{"smartdpss-fleet", engine.PolicySmartDPSS, fleet},
		{"lyapunov", engine.PolicyLyapunov, def},
		{"impatient", engine.PolicyImpatient, def},
		{"smartdpss-noise", engine.PolicySmartDPSS, noise},
	}
}

func (a streamArm) session(t testing.TB, horizon int) *engine.Session {
	t.Helper()
	s, err := engine.NewSession(a.policy, a.opts, horizon)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func metricsOf(s *engine.Session, checkpoints uint64) MetricsSnapshot {
	return MetricsSnapshot{
		Policy:      string(s.Policy()),
		Controller:  s.ControllerName(),
		Status:      s.Status(),
		Checkpoints: checkpoints,
	}
}

func step(t testing.TB, s *engine.Session, traces *engine.Traces) {
	t.Helper()
	if _, err := s.Step(traces.InputAt(s.Slot())); err != nil {
		t.Fatalf("step %d: %v", s.Slot(), err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatalf("commit %d: %v", s.Slot(), err)
	}
}

// TestEncodingsPinned pins the /metrics exposition and the checkpoint of
// every streaming arm, byte for byte, at slot 0, mid-horizon and the
// last slot before Finish. It then restores the pinned mid-horizon
// checkpoint onto a fresh session: the resumed run must finish with the
// uninterrupted run's report, so checkpoints written by earlier builds
// keep resuming.
func TestEncodingsPinned(t *testing.T) {
	traces := shortTraces(t, goldenDays)
	horizon := traces.Horizon()
	pinned := []int{0, horizon / 2, horizon}
	for _, arm := range streamArms() {
		t.Run(arm.name, func(t *testing.T) {
			var buf bytes.Buffer
			s := arm.session(t, horizon)
			var mid []byte
			for i, slot := range pinned {
				for s.Slot() < slot {
					step(t, s, traces)
				}
				fmt.Fprintf(&buf, "== slot %d exposition\n", slot)
				if err := WriteExposition(&buf, metricsOf(s, uint64(i))); err != nil {
					t.Fatal(err)
				}
				cp, err := s.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&buf, "== slot %d checkpoint\n%s\n", slot, cp)
				if slot == horizon/2 {
					mid = cp
				}
			}
			want, err := s.Finish()
			if err != nil {
				t.Fatal(err)
			}

			path := filepath.Join("testdata", "golden", arm.name+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			} else {
				golden, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (regenerate with -update)", err)
				}
				if !bytes.Equal(buf.Bytes(), golden) {
					t.Errorf("encodings differ from %s:\n%s", path, firstDiff(buf.Bytes(), golden))
				}
				if mid = goldenCheckpoint(t, golden, horizon/2); mid == nil {
					t.Fatalf("%s has no slot %d checkpoint", path, horizon/2)
				}
			}

			resumed := arm.session(t, horizon)
			if err := resumed.Restore(mid); err != nil {
				t.Fatalf("restore pinned checkpoint: %v", err)
			}
			for resumed.Slot() < horizon {
				step(t, resumed, traces)
			}
			got, err := resumed.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if reportJSON(t, got) != reportJSON(t, want) {
				t.Error("run resumed from the pinned checkpoint differs from the uninterrupted run")
			}
		})
	}
}

// TestVersionOneCheckpointRefused: a checkpoint in the version-1 format
// (the golden SmartDPSS checkpoint at slot 36, whose report block held
// a copy of the in-progress Report) is refused with ErrSnapshotMismatch
// by a session of the same configuration, which it leaves as it was.
func TestVersionOneCheckpointRefused(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("testdata", "checkpoint-v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	traces := shortTraces(t, goldenDays)
	s := streamArms()[0].session(t, traces.Horizon())
	for s.Slot() < 12 {
		step(t, s, traces)
	}
	before, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var old, cur struct {
		Version    int    `json:"version"`
		ConfigHash string `json:"configHash"`
	}
	if err := json.Unmarshal(v1, &old); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(before, &cur); err != nil {
		t.Fatal(err)
	}
	if old.Version != 1 || old.ConfigHash != cur.ConfigHash {
		t.Fatalf("fixture is version %d with hash %.12s; want version 1 of this configuration (%.12s)",
			old.Version, old.ConfigHash, cur.ConfigHash)
	}
	if err := s.Restore(v1); !errors.Is(err, engine.ErrSnapshotMismatch) {
		t.Fatalf("err = %v, want ErrSnapshotMismatch", err)
	}
	after, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Error("refused checkpoint changed the session")
	}
}

// goldenCheckpoint returns the checkpoint line pinned for slot.
func goldenCheckpoint(t *testing.T, golden []byte, slot int) []byte {
	t.Helper()
	header := []byte(fmt.Sprintf("== slot %d checkpoint\n", slot))
	i := bytes.Index(golden, header)
	if i < 0 {
		return nil
	}
	line := golden[i+len(header):]
	if j := bytes.IndexByte(line, '\n'); j >= 0 {
		line = line[:j]
	}
	return line
}

// firstDiff renders the first differing line of two texts.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if !bytes.Equal(gl, wl) {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, gl, wl)
		}
	}
	return "(no line differs)"
}
