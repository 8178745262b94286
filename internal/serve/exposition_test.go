package serve

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"github.com/smartdpss/smartdpss/internal/jsonenc/jsonenctest"
)

// randomMetrics draws a snapshot whose values come from every class the
// float formatter writes differently (zero, integers, values below 1e-6
// and from 1e21, negatives) and whose policy and controller names are
// plain identifiers, the names every policy and controller has.
func randomMetrics(r *rand.Rand) MetricsSnapshot {
	var m MetricsSnapshot
	jsonenctest.Fill(r, &m.Status)
	names := []string{"smartdpss", "SmartDPSS", "SmartDPSS+noise", "lyapunov", "Impatient", "offline-horizon", ""}
	m.Policy = names[r.Intn(len(names))]
	m.Controller = names[r.Intn(len(names))]
	m.Checkpoints = uint64(r.Int63n(1 << 40))
	return m
}

// TestExpositionMatchesFmtWriter: the append writer renders every
// snapshot byte for byte as the fmt-based writer it replaced.
func TestExpositionMatchesFmtWriter(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var got, want bytes.Buffer
	for i := 0; i < 4000; i++ {
		m := randomMetrics(r)
		got.Reset()
		want.Reset()
		if err := WriteExposition(&got, m); err != nil {
			t.Fatal(err)
		}
		if err := writeExpositionFmt(&want, m); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("exposition differs from the fmt writer:\n%s", firstDiff(got.Bytes(), want.Bytes()))
		}
	}
}

// TestExpositionEscapesLabelsOnce: a label value with the three
// characters OpenMetrics escapes gets one escape each, and the result
// validates. (The fmt writer escaped, then quoted with %q, which
// escaped the escapes a second time.)
func TestExpositionEscapesLabelsOnce(t *testing.T) {
	var buf bytes.Buffer
	m := MetricsSnapshot{Policy: `p"o\l` + "\n", Controller: "ctl"}
	if err := WriteExposition(&buf, m); err != nil {
		t.Fatal(err)
	}
	want := `smartdpss_session_info{policy="p\"o\\l\n",controller="ctl"} 1`
	if !strings.Contains(buf.String(), want+"\n") {
		t.Errorf("exposition lacks %s:\n%s", want, buf.String())
	}
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Error(err)
	}
}

// TestWriteExpositionAllocs pins the scrape at zero allocations into a
// pre-grown buffer (the fmt writer made about 200). sync.Pool drops a
// share of its items on purpose under the race detector, so the pin
// holds only without it.
func TestWriteExpositionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	m := randomMetrics(rand.New(rand.NewSource(2)))
	var buf bytes.Buffer
	buf.Grow(8 << 10)
	allocs := testing.AllocsPerRun(100, func() {
		buf.Reset()
		if err := WriteExposition(&buf, m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("WriteExposition allocates %v times per scrape, want 0", allocs)
	}
}

// BenchmarkWriteExposition measures one /metrics scrape of a mid-run
// SmartDPSS session into a reused buffer: the serve rung of dpss-serve's
// per-slot cost.
func BenchmarkWriteExposition(b *testing.B) {
	traces := shortTraces(b, goldenDays)
	s := streamArms()[0].session(b, traces.Horizon())
	for s.Slot() < traces.Horizon()/2 {
		step(b, s, traces)
	}
	m := metricsOf(s, 1)
	var buf bytes.Buffer
	b.ReportAllocs()
	for b.Loop() {
		buf.Reset()
		if err := WriteExposition(&buf, m); err != nil {
			b.Fatal(err)
		}
	}
}
