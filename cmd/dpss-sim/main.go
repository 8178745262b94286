// Command dpss-sim runs one DPSS simulation and prints its report.
//
// Usage:
//
//	dpss-sim [-policy smartdpss|impatient|offline|offline-horizon|lookahead|lyapunov]
//	         [-days N] [-seed S] [-v V] [-epsilon E] [-t T]
//	         [-battery-minutes M] [-peak-mw P] [-solar-mw S]
//	         [-penetration F] [-noise F] [-rtm]
//	         [-gen-mw G] [-gen-min-load F] [-fuel C] [-gen-startup U]
//
// Examples:
//
//	dpss-sim                                  # SmartDPSS, paper defaults
//	dpss-sim -policy impatient                # the strawman baseline
//	dpss-sim -v 5                             # cheaper, slower service
//	dpss-sim -penetration 0.6 -battery-minutes 30
//	dpss-sim -gen-mw 0.5 -fuel 45             # with on-site generation
package main

import (
	"flag"
	"fmt"
	"os"

	dpss "github.com/smartdpss/smartdpss"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dpss-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dpss-sim", flag.ContinueOnError)
	var (
		policy      = fs.String("policy", "smartdpss", "control policy: smartdpss|impatient|offline|offline-horizon|lookahead|lyapunov")
		days        = fs.Int("days", 31, "trace horizon in days")
		seed        = fs.Int64("seed", 1, "generator seed")
		v           = fs.Float64("v", 1.0, "Lyapunov cost-delay parameter V")
		epsilon     = fs.Float64("epsilon", 0.5, "delay-control parameter ε")
		t           = fs.Int("t", 24, "fine slots per coarse slot T")
		battMinutes = fs.Float64("battery-minutes", 15, "UPS size in minutes of peak demand (0 disables)")
		peakMW      = fs.Float64("peak-mw", 2.0, "datacenter peak in MW (grid cap)")
		solarMW     = fs.Float64("solar-mw", 3.0, "solar plant capacity in MW")
		penetration = fs.Float64("penetration", -1, "override renewable penetration (0..1, negative keeps the generated level)")
		noise       = fs.Float64("noise", 0, "uniform observation error fraction (Fig. 9 uses 0.5)")
		genMW       = fs.Float64("gen-mw", 0, "dispatchable on-site generator capacity in MW (0 disables)")
		genMinLoad  = fs.Float64("gen-min-load", 0.2, "generator minimum stable load as a fraction of capacity")
		fuel        = fs.Float64("fuel", 0, "generator fuel price in USD/MWh (0 uses the 85 default)")
		genStartup  = fs.Float64("gen-startup", 10, "generator cold-start cost in USD")
		rtm         = fs.Bool("rtm", false, "disable the long-term-ahead market (real-time only)")
		showBounds  = fs.Bool("bounds", false, "print the Theorem 2 bounds for these options")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	tc := dpss.TraceConfig{Days: *days, Seed: *seed, SolarCapacityMW: *solarMW, PeakMW: *peakMW}
	traces, err := dpss.GenerateTraces(tc)
	if err != nil {
		return err
	}
	if *penetration >= 0 {
		if err := traces.SetPenetration(*penetration); err != nil {
			return err
		}
	}

	opts := dpss.DefaultOptions()
	opts.V = *v
	opts.Epsilon = *epsilon
	opts.T = *t
	opts.BatteryMinutes = *battMinutes
	opts.PeakMW = *peakMW
	opts.DisableLongTerm = *rtm
	opts.ObservationNoise = *noise
	opts.NoiseSeed = *seed + 1
	opts.Fleet = []dpss.UnitSpec{{
		CapacityMW:    *genMW,
		MinLoadFrac:   *genMinLoad,
		FuelUSDPerMWh: *fuel,
		StartupUSD:    *genStartup,
	}}

	if *showBounds {
		b, err := dpss.Bounds(opts)
		if err != nil {
			return err
		}
		fmt.Printf("Theorem 2 bounds: Qmax=%.3f MWh Ymax=%.3f Umax=%.3f λmax=%d slots Vmax=%.3f\n\n",
			b.QMax, b.YMax, b.UMax, b.LambdaMax, b.VMax)
	}

	rep, err := dpss.Simulate(dpss.Policy(*policy), opts, traces)
	if err != nil {
		return err
	}
	fmt.Printf("renewable penetration: %.1f%%, demand std: %.3f MWh\n",
		100*traces.RenewablePenetration(), traces.DemandStdDev())
	fmt.Print(rep)
	return nil
}
