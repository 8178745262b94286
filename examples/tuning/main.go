// Tuning: an operator walks the [O(1/V), O(V)] cost–delay frontier of
// Theorem 2 to pick the largest V whose mean service delay still meets a
// service-level objective, then reports the cost saved relative to V
// chosen conservatively.
//
// This is the workflow the paper motivates in Sec. IV-B: "SmartDPSS
// enables CSPs to have a tunable system with the flexibility to make
// tradeoff between DPSS operation cost and demand service delay".
package main

import (
	"fmt"
	"log"

	dpss "github.com/smartdpss/smartdpss"
)

// delaySLO is the acceptable mean delay for the delay-tolerant class, in
// hours (slots).
const delaySLO = 8.0

func main() {
	traces, err := dpss.GenerateTraces(dpss.DefaultTraceConfig())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-6s  %-12s  %-12s  %-10s  %s\n", "V", "cost $/slot", "mean delay", "max delay", "λmax bound")
	var (
		bestV    float64
		bestCost = -1.0
		baseCost float64
	)
	for _, v := range []float64{0.05, 0.1, 0.25, 0.5, 1, 2, 3, 5} {
		opts := dpss.DefaultOptions()
		opts.V = v
		rep, err := dpss.Simulate(dpss.PolicySmartDPSS, opts, traces)
		if err != nil {
			log.Fatal(err)
		}
		bounds, err := dpss.Bounds(opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6.2f  %-12.2f  %-12.2f  %-10d  %d\n",
			v, rep.TimeAvgCostUSD, rep.MeanDelaySlots, rep.MaxDelaySlots, bounds.LambdaMax)
		if v == 0.05 {
			baseCost = rep.TotalCostUSD
		}
		if rep.MeanDelaySlots <= delaySLO && (bestCost < 0 || rep.TotalCostUSD < bestCost) {
			bestV, bestCost = v, rep.TotalCostUSD
		}
	}

	if bestCost < 0 {
		fmt.Printf("\nno V meets the %.0f-hour mean-delay SLO\n", delaySLO)
		return
	}
	fmt.Printf("\npick V = %.2f: meets the %.0f h SLO and saves %.1f%% versus the most conservative setting\n",
		bestV, delaySLO, 100*(1-bestCost/baseCost))
}
