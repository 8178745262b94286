// Quickstart: simulate one month of SmartDPSS with the paper's default
// parameters and compare it against the Impatient baseline.
//
// For the full reproduction of the paper's figures (and the extension
// and provisioning studies) use the scenario-suite CLI instead:
//
//	go run ./cmd/experiments -list
package main

import (
	"fmt"
	"log"

	dpss "github.com/smartdpss/smartdpss"
)

func main() {
	// 1. Generate the synthetic one-month scenario: interactive + batch
	// datacenter demand, January solar production, and two-timescale
	// electricity prices.
	traces, err := dpss.GenerateTraces(dpss.DefaultTraceConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scenario: %d hourly slots, %.1f%% renewable penetration\n\n",
		traces.Horizon(), 100*traces.RenewablePenetration())

	// 2. Run the online SmartDPSS controller (V = 1, ε = 0.5, T = 24,
	// 15-minute UPS — the paper's Sec. VI-A defaults).
	opts := dpss.DefaultOptions()
	smart, err := dpss.Simulate(dpss.PolicySmartDPSS, opts, traces)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("SmartDPSS:")
	fmt.Print(smart)

	// 3. Compare against the serve-immediately strawman.
	impatient, err := dpss.Simulate(dpss.PolicyImpatient, opts, traces)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nImpatient:")
	fmt.Print(impatient)

	saving := 1 - smart.TotalCostUSD/impatient.TotalCostUSD
	fmt.Printf("\nSmartDPSS saves %.1f%% at a mean delay of %.1f hours (Impatient: %.1f).\n",
		100*saving, smart.MeanDelaySlots, impatient.MeanDelaySlots)

	// 4. The worst-case guarantees behind that delay (Theorem 2).
	b, err := dpss.Bounds(opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Theorem 2: backlog ≤ %.2f MWh, worst-case delay ≤ %d slots.\n",
		b.QMax, b.LambdaMax)
}
