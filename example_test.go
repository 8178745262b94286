package smartdpss_test

// Godoc examples for the public API. They run as part of the test suite;
// output lines are checked verbatim, so everything printed must be
// deterministic (seeded generators guarantee that).

import (
	"fmt"
	"log"

	dpss "github.com/smartdpss/smartdpss"
)

// Example runs one week of SmartDPSS and prints whether it beat the
// serve-immediately baseline.
func Example() {
	tc := dpss.DefaultTraceConfig()
	tc.Days = 7
	traces, err := dpss.GenerateTraces(tc)
	if err != nil {
		log.Fatal(err)
	}
	smart, err := dpss.Simulate(dpss.PolicySmartDPSS, dpss.DefaultOptions(), traces)
	if err != nil {
		log.Fatal(err)
	}
	impatient, err := dpss.Simulate(dpss.PolicyImpatient, dpss.DefaultOptions(), traces)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("SmartDPSS cheaper:", smart.TotalCostUSD < impatient.TotalCostUSD)
	// Output:
	// SmartDPSS cheaper: true
}

// ExampleBounds shows the deterministic Theorem 2 guarantees for a
// configuration before running anything.
func ExampleBounds() {
	opts := dpss.DefaultOptions() // V = 1, ε = 0.5, T = 24, Pmax = 150
	b, err := dpss.Bounds(opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Qmax = %.2f MWh\n", b.QMax)
	fmt.Printf("worst-case delay = %d slots\n", b.LambdaMax)
	// Output:
	// Qmax = 7.25 MWh
	// worst-case delay = 28 slots
}

// ExampleTraces_SetPenetration rescales the renewable series to a target
// share of total demand.
func ExampleTraces_SetPenetration() {
	tc := dpss.DefaultTraceConfig()
	tc.Days = 7
	traces, err := dpss.GenerateTraces(tc)
	if err != nil {
		log.Fatal(err)
	}
	if err := traces.SetPenetration(0.5); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("penetration = %.0f%%\n", 100*traces.RenewablePenetration())
	// Output:
	// penetration = 50%
}

// ExampleSimulate_generator equips the datacenter with a dispatchable
// on-site generator (arXiv:1303.6775) whose fuel undercuts the grid and
// shows that SmartDPSS dispatches it to cut cost.
func ExampleSimulate_generator() {
	tc := dpss.DefaultTraceConfig()
	tc.Days = 7
	traces, err := dpss.GenerateTraces(tc)
	if err != nil {
		log.Fatal(err)
	}
	plain, err := dpss.Simulate(dpss.PolicySmartDPSS, dpss.DefaultOptions(), traces)
	if err != nil {
		log.Fatal(err)
	}
	opts := dpss.DefaultOptions()
	opts.Fleet = []dpss.UnitSpec{{
		CapacityMW:    0.5, // half a megawatt of on-site capacity
		MinLoadFrac:   0.2, // cannot run below 20% of nameplate
		StartupUSD:    10,
		FuelUSDPerMWh: 30, // cheaper than the grid: near-baseload duty
	}}
	withGen, err := dpss.Simulate(dpss.PolicySmartDPSS, opts, traces)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("generator dispatched:", withGen.GenEnergyMWh > 0)
	fmt.Println("on-site generation cheaper:", withGen.TotalCostUSD < plain.TotalCostUSD)
	// Output:
	// generator dispatched: true
	// on-site generation cheaper: true
}

// ExampleNewSession drives the controller slot by slot through the
// streaming session API and checkpoints it halfway: the resumed second
// half completes the exact run the batch Simulate would have produced.
func ExampleNewSession() {
	tc := dpss.DefaultTraceConfig()
	tc.Days = 2
	traces, err := dpss.GenerateTraces(tc)
	if err != nil {
		log.Fatal(err)
	}
	opts := dpss.DefaultOptions()

	sess, err := dpss.NewSession(dpss.PolicySmartDPSS, opts, traces.Horizon())
	if err != nil {
		log.Fatal(err)
	}
	// First half: in a live deployment each input would arrive from
	// building telemetry; here the generated traces stand in.
	for sess.Slot() < traces.Horizon()/2 {
		if _, err := sess.Step(traces.InputAt(sess.Slot())); err != nil {
			log.Fatal(err)
		}
		if _, err := sess.Commit(); err != nil {
			log.Fatal(err)
		}
	}
	checkpoint, err := sess.Snapshot() // persist across restarts
	if err != nil {
		log.Fatal(err)
	}

	// A fresh, identically configured session resumes bit-for-bit.
	resumed, err := dpss.NewSession(dpss.PolicySmartDPSS, opts, traces.Horizon())
	if err != nil {
		log.Fatal(err)
	}
	if err := resumed.Restore(checkpoint); err != nil {
		log.Fatal(err)
	}
	for !resumed.Done() {
		if _, err := resumed.Step(traces.InputAt(resumed.Slot())); err != nil {
			log.Fatal(err)
		}
		if _, err := resumed.Commit(); err != nil {
			log.Fatal(err)
		}
	}
	rep, err := resumed.Finish()
	if err != nil {
		log.Fatal(err)
	}

	batch, err := dpss.Simulate(dpss.PolicySmartDPSS, opts, traces)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("slots:", rep.Slots)
	fmt.Println("matches batch:", rep.TotalCostUSD == batch.TotalCostUSD)
	// Output:
	// slots: 48
	// matches batch: true
}

// ExampleSimulate_lookahead compares SmartDPSS with an MPC controller
// holding six hours of perfect foresight.
func ExampleSimulate_lookahead() {
	tc := dpss.DefaultTraceConfig()
	tc.Days = 7
	traces, err := dpss.GenerateTraces(tc)
	if err != nil {
		log.Fatal(err)
	}
	smart, err := dpss.Simulate(dpss.PolicySmartDPSS, dpss.DefaultOptions(), traces)
	if err != nil {
		log.Fatal(err)
	}
	opts := dpss.DefaultOptions()
	opts.LookaheadWindow = 6
	mpc, err := dpss.Simulate(dpss.PolicyLookahead, opts, traces)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("forecast-free SmartDPSS beats 6h-perfect MPC:",
		smart.TotalCostUSD < mpc.TotalCostUSD)
	// Output:
	// forecast-free SmartDPSS beats 6h-perfect MPC: true
}
