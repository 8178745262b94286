package sim

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestCleanZero pins the residual normalization: negative zero and
// sub-epsilon noise collapse to +0, real values pass through.
func TestCleanZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := []struct {
		in, want float64
	}{
		{negZero, 0},
		{0, 0},
		{1e-18, 0},
		{-1e-18, 0},
		{-9.9e-10, 0},
		{1e-8, 1e-8},
		{-1e-8, -1e-8},
		{3.5, 3.5},
	}
	for _, c := range cases {
		got := cleanZero(c.in)
		if got != c.want || math.Signbit(got) != math.Signbit(c.want) {
			t.Errorf("cleanZero(%g) = %g (signbit %v), want %g", c.in, got, math.Signbit(got), c.want)
		}
	}
}

// TestReportScrubsNegativeZero sets a session's running totals to IEEE
// negative zeros and sub-epsilon noise — the exact
// garbage the balance residual can produce — and asserts neither the
// printed lines nor the JSON export of the Finish report can ever show
// "-0".
func TestReportScrubsNegativeZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	set := flatSet(4, 0, 0, 0, 0, 0)
	s, err := NewSession(testConfig(), &scriptController{name: "scrub"}, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for s.Slot() < 4 {
		if _, err := s.Step(InputAt(set, s.Slot())); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	tot := &s.tot
	tot.TotalCostUSD, tot.WasteCostUSD, tot.WasteMWh = negZero, negZero, negZero
	tot.UnservedMWh, tot.BacklogMeanMWh = -1e-15, negZero
	r, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}

	for name, v := range map[string]float64{
		"TotalCostUSD":   r.TotalCostUSD,
		"WasteCostUSD":   r.WasteCostUSD,
		"WasteMWh":       r.WasteMWh,
		"UnservedMWh":    r.UnservedMWh,
		"TimeAvgCostUSD": r.TimeAvgCostUSD,
	} {
		if v != 0 || math.Signbit(v) {
			t.Errorf("%s = %g (signbit %v), want +0", name, v, math.Signbit(v))
		}
	}

	out, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(out), "-0") {
		t.Errorf("JSON export contains a negative zero: %s", out)
	}
	if strings.Contains(r.String(), "-0.00") {
		t.Errorf("report lines contain -0.00:\n%s", r.String())
	}
}
