package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"github.com/smartdpss/smartdpss/internal/engine"
)

func shortTraces(t testing.TB, days int) *engine.Traces {
	t.Helper()
	tc := engine.DefaultTraceConfig()
	tc.Days = days
	traces, err := engine.GenerateTraces(tc)
	if err != nil {
		t.Fatal(err)
	}
	return traces
}

func newDaemon(t *testing.T, traces *engine.Traces, cfg Config) *Daemon {
	t.Helper()
	sess, err := engine.NewReplaySession(engine.PolicySmartDPSS, engine.DefaultOptions(), traces)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewReplaySource(traces)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Session = sess
	cfg.Source = src
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func reportJSON(t *testing.T, rep *engine.Report) string {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDaemonMatchesBatch: a full run through the daemon's ingest loop is
// the same computation as batch Simulate — the service mode inherits the
// byte-equivalence guarantee.
func TestDaemonMatchesBatch(t *testing.T) {
	traces := shortTraces(t, 7)
	want, err := engine.Simulate(engine.PolicySmartDPSS, engine.DefaultOptions(), traces)
	if err != nil {
		t.Fatal(err)
	}

	d := newDaemon(t, traces, Config{})
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !d.Session().Done() {
		t.Fatalf("ingest stopped at slot %d of %d", d.Session().Slot(), d.Session().Horizon())
	}
	got, err := d.Session().Finish()
	if err != nil {
		t.Fatal(err)
	}
	if reportJSON(t, want) != reportJSON(t, got) {
		t.Error("daemon ingest run differs from batch Simulate")
	}
}

// interruptSource cancels the run's context after n observations — the
// test stand-in for a crash or SIGTERM mid-run.
type interruptSource struct {
	Source
	n      int
	cancel context.CancelFunc
}

func (s *interruptSource) Next(ctx context.Context) (Observation, error) {
	if s.n <= 0 {
		s.cancel()
		return Observation{}, ctx.Err()
	}
	s.n--
	return s.Source.Next(ctx)
}

// TestDaemonCrashRecovery: kill the daemon mid-run (context cancel after
// a final checkpoint), then restart from the checkpoint file; the
// completed run must match the uninterrupted one byte for byte.
func TestDaemonCrashRecovery(t *testing.T) {
	traces := shortTraces(t, 7)
	want, err := engine.Simulate(engine.PolicySmartDPSS, engine.DefaultOptions(), traces)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "dpss.ckpt")

	// First incarnation: cancelled after 50 slots.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sess1, err := engine.NewReplaySession(engine.PolicySmartDPSS, engine.DefaultOptions(), traces)
	if err != nil {
		t.Fatal(err)
	}
	src1, err := NewReplaySource(traces)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := New(Config{
		Session:        sess1,
		Source:         &interruptSource{Source: src1, n: 50, cancel: cancel},
		CheckpointPath: ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d1.Resumed() {
		t.Error("fresh daemon claims to have resumed")
	}
	if err := d1.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	if d1.Checkpoints() == 0 {
		t.Fatal("no checkpoint written before the crash")
	}
	killedAt := sess1.Slot()
	if killedAt == 0 || killedAt >= traces.Horizon() {
		t.Fatalf("crash at slot %d is not mid-run", killedAt)
	}

	// Second incarnation: restores from the file and runs to completion.
	d2 := newDaemon(t, traces, Config{CheckpointPath: ckpt})
	if !d2.Resumed() {
		t.Fatal("restarted daemon did not resume from the checkpoint")
	}
	if d2.Session().Slot() != killedAt {
		t.Fatalf("resumed at slot %d, want %d", d2.Session().Slot(), killedAt)
	}
	if err := d2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, err := d2.Session().Finish()
	if err != nil {
		t.Fatal(err)
	}
	if reportJSON(t, want) != reportJSON(t, got) {
		t.Error("recovered run differs from uninterrupted run")
	}
}

// TestDaemonRejectsMisalignedSource: an ingest source that skips a slot
// must stop the daemon, not silently feed the wrong world.
func TestDaemonRejectsMisalignedSource(t *testing.T) {
	traces := shortTraces(t, 2)
	src, err := NewReplaySource(traces)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Seek(5); err != nil {
		t.Fatal(err)
	}
	sess, err := engine.NewReplaySession(engine.PolicySmartDPSS, engine.DefaultOptions(), traces)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{Session: sess, Source: src})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "slot") {
		t.Errorf("misaligned source: err = %v, want slot mismatch", err)
	}
}

func TestReplaySourceBounds(t *testing.T) {
	traces := shortTraces(t, 2)
	src, err := NewReplaySource(traces)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Seek(-1); err == nil {
		t.Error("negative seek accepted")
	}
	if err := src.Seek(traces.Horizon() + 1); err == nil {
		t.Error("seek past horizon accepted")
	}
	if err := src.Seek(traces.Horizon()); err != nil {
		t.Errorf("seek to horizon rejected: %v", err)
	}
	if _, err := src.Next(context.Background()); !errors.Is(err, io.EOF) {
		t.Errorf("drained source: err = %v, want io.EOF", err)
	}
	if _, err := NewReplaySource(nil); err == nil {
		t.Error("nil traces accepted")
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := src.Seek(0); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Next(cancelled); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled Next: err = %v", err)
	}
}

func TestNewDaemonValidation(t *testing.T) {
	traces := shortTraces(t, 2)
	src, _ := NewReplaySource(traces)
	sess, err := engine.NewReplaySession(engine.PolicySmartDPSS, engine.DefaultOptions(), traces)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Source: src}); err == nil {
		t.Error("nil session accepted")
	}
	if _, err := New(Config{Session: sess}); err == nil {
		t.Error("nil source accepted")
	}
}

// TestExpositionValidates: the daemon's own exposition must pass the
// OpenMetrics validator and carry the headline families.
func TestExpositionValidates(t *testing.T) {
	traces := shortTraces(t, 2)
	d := newDaemon(t, traces, Config{})
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := WriteExposition(&buf, d.snapshotMetrics()); err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("self-exposition invalid: %v\n%s", err, buf.String())
	}
	for _, want := range []string{
		"smartdpss_slots_total 48",
		`smartdpss_session_info{policy="smartdpss"`,
		`smartdpss_cost_usd_total{component="longterm"}`,
		`smartdpss_energy_mwh_total{source="renewable"}`,
		"smartdpss_backlog_mwh ",
		"# EOF\n",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestHandlerEndpoints drives the HTTP surface end to end.
func TestHandlerEndpoints(t *testing.T) {
	traces := shortTraces(t, 2)
	d := newDaemon(t, traces, Config{})
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	t.Run("metrics", func(t *testing.T) {
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if got := resp.Header.Get("Content-Type"); got != ContentType {
			t.Errorf("Content-Type = %q, want %q", got, ContentType)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateExposition(body); err != nil {
			t.Errorf("served exposition invalid: %v", err)
		}
	})
	t.Run("healthz", func(t *testing.T) {
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if string(body) != "ok\n" {
			t.Errorf("healthz = %q", body)
		}
	})
	t.Run("status", func(t *testing.T) {
		resp, err := http.Get(srv.URL + "/status")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st struct {
			Policy string               `json:"policy"`
			Status engine.SessionStatus `json:"status"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		if st.Policy != "smartdpss" {
			t.Errorf("policy = %q", st.Policy)
		}
		if st.Status.Slot != 48 {
			t.Errorf("slot = %d, want 48", st.Status.Slot)
		}
	})
}

// TestValidateExpositionRejects: the validator must catch the classic
// OpenMetrics malformations.
func TestValidateExpositionRejects(t *testing.T) {
	cases := []struct {
		name string
		text string
	}{
		{"empty", ""},
		{"missing EOF", "# TYPE a gauge\na 1\n"},
		{"no trailing newline", "# TYPE a gauge\na 1\n# EOF"},
		{"content after EOF", "# TYPE a gauge\na 1\n# EOF\na 2\n"},
		{"sample before TYPE", "a 1\n# EOF\n"},
		{"counter without _total", "# TYPE a counter\na 1\n# EOF\n"},
		{"gauge with _total of undeclared family", "# TYPE a gauge\nb_total 1\n# EOF\n"},
		{"non-float value", "# TYPE a gauge\na one\n# EOF\n"},
		{"bad metric name", "# TYPE a gauge\n1a 1\n# EOF\n"},
		{"unknown type", "# TYPE a widget\na 1\n# EOF\n"},
		{"duplicate TYPE", "# TYPE a gauge\n# TYPE a gauge\na 1\n# EOF\n"},
		{"unterminated labels", "# TYPE a gauge\na{x=\"1\" 1\n# EOF\n"},
		{"unquoted label value", "# TYPE a gauge\na{x=1} 1\n# EOF\n"},
		{"blank line", "# TYPE a gauge\n\na 1\n# EOF\n"},
		{"interleaved families", "# TYPE a gauge\n# TYPE b gauge\na 1\nb 1\na 2\n# EOF\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := ValidateExposition([]byte(tc.text)); err == nil {
				t.Errorf("accepted malformed exposition:\n%s", tc.text)
			}
		})
	}

	good := "# TYPE a gauge\n# HELP a help text\na{x=\"y\",z=\"w\"} 1.5\n" +
		"# TYPE b counter\nb_total 2\n# EOF\n"
	if err := ValidateExposition([]byte(good)); err != nil {
		t.Errorf("rejected well-formed exposition: %v", err)
	}
}

// TestPeriodicCheckpoints: the daemon writes on the configured cadence,
// not just at shutdown, and does not rewrite at shutdown the slot the
// last periodic write already holds.
func TestPeriodicCheckpoints(t *testing.T) {
	traces := shortTraces(t, 2) // 48 slots
	ckpt := filepath.Join(t.TempDir(), "dpss.ckpt")
	d := newDaemon(t, traces, Config{CheckpointPath: ckpt, CheckpointEvery: 12})
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// 48/12 periodic writes; the last one is also the final checkpoint.
	if got := d.Checkpoints(); got != 4 {
		t.Errorf("checkpoints = %d, want 4", got)
	}
}

// TestFinalCheckpointBetweenBoundaries: a daemon stopped between two
// periodic writes still writes the slot it stopped at, and a daemon
// that resumes from that file and stops again at once rewrites nothing.
func TestFinalCheckpointBetweenBoundaries(t *testing.T) {
	traces := shortTraces(t, 2)
	ckpt := filepath.Join(t.TempDir(), "dpss.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d := newDaemon(t, traces, Config{CheckpointPath: ckpt, CheckpointEvery: 12})
	d.cfg.Source = &interruptSource{Source: d.cfg.Source, n: 30, cancel: cancel}
	if err := d.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Periodic writes at slots 12 and 24, the final one at 30.
	if got := d.Checkpoints(); got != 3 {
		t.Errorf("checkpoints = %d, want 3", got)
	}

	stopped, cancel2 := context.WithCancel(context.Background())
	cancel2()
	again := newDaemon(t, traces, Config{CheckpointPath: ckpt, CheckpointEvery: 12})
	if got := again.Session().Slot(); got != 30 {
		t.Fatalf("resumed at slot %d, want 30", got)
	}
	if err := again.Run(stopped); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := again.Checkpoints(); got != 0 {
		t.Errorf("resumed daemon rewrote the checkpoint it resumed from (%d writes)", got)
	}
}
