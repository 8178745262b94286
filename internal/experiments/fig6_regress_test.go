package experiments

import (
	"testing"

	dpss "github.com/smartdpss/smartdpss/internal/engine"
)

// TestFig6vOfflineDelayPinned replays the fig6v golden's OfflineOptimal
// column directly: the one-month clairvoyant run at the default options
// must still report a mean delay that formats to exactly 3.097 slots (and
// the matching cost). The full golden diff also covers this, but this
// test names the contract behind it: OfflineOptimal solves each interval
// as one staircase block on lp's sparse revised simplex, and these
// degenerate interval LPs have alternate optima with equal cost but a
// different delay. The same blocks on the retired dense tableau reported
// 3.129, and the row-per-bound chain LP before them 3.098, both at the
// same 40.99 $/slot; a drift here points straight at the interval LP's
// vertex instead of at a wall of table-diff noise.
func TestFig6vOfflineDelayPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full one-month OfflineOptimal run in -short mode")
	}
	traces, err := baseTraces(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := simulate(dpss.PolicyOfflineOptimal, dpss.DefaultOptions(), traces)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmtF(rep.MeanDelaySlots); got != "3.097" {
		t.Errorf("OfflineOptimal mean delay = %s slots, golden pins 3.097", got)
	}
	if got := fmtUSD(rep.TimeAvgCostUSD); got != "40.99" {
		t.Errorf("OfflineOptimal time-average cost = $%s/slot, golden pins 40.99", got)
	}
}
