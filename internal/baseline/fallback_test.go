package baseline_test

import (
	"testing"

	"github.com/smartdpss/smartdpss/internal/baseline"
	"github.com/smartdpss/smartdpss/internal/engine"
	"github.com/smartdpss/smartdpss/internal/sim"
)

// TestLookaheadMonthWindowsSolve replays EXT-5's Lookahead(24) over the
// default 31-day month at seed 2000007, whose window LPs include one
// that used to cycle through a refactorization per pivot until it ran
// out of pivots, and requires every window LP to solve: a window that
// errs makes PlanFine fall back to its myopic decision.
func TestLookaheadMonthWindowsSolve(t *testing.T) {
	tc := engine.DefaultTraceConfig()
	tc.Seed = 2000007
	traces, err := engine.GenerateTraces(tc)
	if err != nil {
		t.Fatal(err)
	}
	opts := engine.DefaultOptions()
	cfg := opts.BaselineConfig()
	fallbacks, rep, err := baseline.LookaheadFallbacks(cfg, sim.Config{Plant: cfg.Plant}, traces.View(), 24)
	if err != nil {
		t.Fatal(err)
	}
	if fallbacks != 0 {
		t.Errorf("%d of %d window LPs erred and fell back to the myopic decision", fallbacks, traces.View().Horizon())
	}
	t.Logf("Lookahead(24): %.4f $/slot, mean delay %.4f slots", rep.TimeAvgCostUSD, rep.MeanDelaySlots)
}
