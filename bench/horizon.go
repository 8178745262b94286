package main

import (
	"fmt"
	"math"
	"runtime"

	"github.com/smartdpss/smartdpss/internal/engine"
)

// Horizon workload shape: the clairvoyant planner's loop, two kinds of
// whole-horizon LP on the sparse simplex, both over 31 hourly days.
//
//   - The month plan: one PolicyOfflineHorizon staircase LP, what
//     `dpss-sim -policy offline-horizon` solves at its default scope. A
//     run cycles through 64 inputs, so its statistics average out how
//     hard one seed's LP is.
//   - The coupled plan: geo.Run of GEO-1's 3-site fleet with the
//     clairvoyant router, one block-angular routing+supply LP, then the
//     replay through each site's controller. A run alternates two fleets,
//     so it repeats each.
//
// Operations are single plans, in cycles of one coupled plan and then
// stairPerCoupled month plans. On the reference machine the two halves of
// a cycle take about as long (0.12 s per month plan, 2.9 s per coupled
// plan), and throughput is reported for that fixed mix, so each kind
// carries about half of it. The annual plan of the ext-annual scenario
// (8760 slots) takes 9–11 s per solve, so a run would hold three samples
// of it.
const (
	stairDays       = 31
	horizonInputs   = 64 // distinct month-plan inputs per run; operations cycle through them
	coupledSites    = 3
	coupledFleets   = 2
	stairPerCoupled = 24
	relTolerance    = 1e-3
	energyEpsilon   = 1e-6 // MWh
)

// The horizon workload's kinds of operation.
const (
	kindStair = iota
	kindCoupled
)

// planInput is one month plan's input.
type planInput struct {
	traces *engine.Traces
	first  firstSolve
}

// firstSolve keeps an input's first cost, which every later solve of it
// must repeat exactly.
type firstSolve struct {
	cost float64
	done bool
}

// horizonSet is the horizon workload's inputs.
type horizonSet struct {
	stair  []*planInput
	fleets []*fleetInput
}

func horizonDays(small bool) int {
	if small {
		return 7
	}
	return stairDays
}

// stairTrace is the staircase plan's trace request.
func stairTrace(days int, seed int64) engine.TraceConfig {
	tc := engine.DefaultTraceConfig()
	tc.Days = days
	tc.Seed = seed
	return tc
}

func runHorizonWorkload(o runOpts, tr *tracer) (*result, error) {
	days := horizonDays(o.small)
	nSites, fleetDays := geoShape(coupledSites, o.small)
	in, setup, err := timeSetup(o, func() (horizonSet, error) {
		stair := make([]*planInput, horizonInputs)
		for k := range stair {
			id := tr.begin("engine.generate_traces", -1, -1)
			traces, err := engine.GenerateTraces(stairTrace(days, subSeed(o.seed, k)))
			tr.end(id)
			if err != nil {
				return horizonSet{}, err
			}
			stair[k] = &planInput{traces: traces}
		}
		return horizonSet{stair, newFleets(coupledFleets, nSites, fleetDays, o.seed)}, nil
	})
	if err != nil {
		return nil, err
	}

	s := newSampler(o, tr)
	s.mix = []float64{kindStair: stairPerCoupled, kindCoupled: 1}
	opts := engine.DefaultOptions()
	stairKey := fmt.Sprintf("horizon.stair.%s.%d", sizeName(o.small), o.seed)
	coupledKey := fmt.Sprintf("horizon.coupled.%s.%d", sizeName(o.small), o.seed)
	var lps, replays []float64
	nStair, nCoupled := 0, 0
	for s.more() || nStair == 0 {
		if (nStair+nCoupled)%(stairPerCoupled+1) == 0 {
			k := nCoupled % len(in.fleets)
			fl := in.fleets[k]
			nCoupled++
			var out planOutcome
			var err error
			s.doKind(kindCoupled, float64(nSites*fleetDays*24), func(c opCtx) error {
				id := c.begin("geo.run_lp")
				defer c.end(id)
				out, err = planCoupled(fl.sites)
				return err
			})
			if err == nil {
				checkPlan(s, o.refs, coupledKey, k, &fl.first, out)
			}
			// After each traced coupled plan, outside the operation, the
			// same fleet's trace generation and its coupled LP alone: the
			// rest of the plan is the replay through each site's controller.
			if s.traced[len(s.traced)-1] {
				var genS, lpS float64
				s.aside(func() { genS, lpS, err = probeCoupled(tr, fl.sites) })
				if err != nil {
					s.fail(fmt.Errorf("fleet %d probe: %w", k, err))
					continue
				}
				lps = append(lps, lpS)
				replays = append(replays, s.lat[len(s.lat)-1]-lpS-genS)
			}
			continue
		}
		k := nStair % len(in.stair)
		nStair++
		pi := in.stair[k]
		var rep *engine.Report
		s.doKind(kindStair, float64(pi.traces.Horizon()), func(c opCtx) error {
			var err error
			rep, err = planStair(opts, pi.traces, c)
			return err
		})
		if rep != nil {
			checkPlan(s, o.refs, stairKey, k, &pi.first, planOutcome{cost: rep.TotalCostUSD, unserved: rep.UnservedMWh})
		}
	}
	s.stop()

	// Plans are deterministic: the first month plan, solved again after the
	// run, must repeat its cost exactly, and so must the first coupled plan
	// where the run did not repeat it.
	if rep, err := planStair(opts, in.stair[0].traces, opCtx{}); err != nil {
		s.fail(fmt.Errorf("%s[0] again: %w", stairKey, err))
	} else {
		checkPlan(s, o.refs, stairKey, 0, &in.stair[0].first, planOutcome{cost: rep.TotalCostUSD, unserved: rep.UnservedMWh})
	}
	if nCoupled <= len(in.fleets) {
		if out, err := planCoupled(in.fleets[0].sites); err != nil {
			s.fail(fmt.Errorf("%s[0] again: %w", coupledKey, err))
		} else {
			checkPlan(s, o.refs, coupledKey, 0, &in.fleets[0].first, out)
		}
	}

	var allocMB float64
	if tr != nil {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		if _, err := engine.NewReplaySession(engine.PolicyOfflineHorizon, opts, in.stair[0].traces); err != nil {
			s.fail(fmt.Errorf("allocation probe: %w", err))
		}
		runtime.ReadMemStats(&m1)
		allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	}

	res, err := s.result(setup)
	if err != nil || tr == nil {
		return res, err
	}
	spans := tr.closed()
	sec := func(name string) metric {
		xs := selfTimes(spans, name)
		return metric{name + "_s", "s", median(xs) / 1e9, len(xs)}
	}
	res.metrics = append(res.metrics,
		sec("engine.new_replay_session"),
		sec("engine.replay"),
		metric{"engine.new_replay_session_alloc_mb", "MB", allocMB, 1},
		sec("geo.run_lp"),
		metric{"baseline.geo_lp_s", "s", median(lps), len(lps)},
		metric{"geo.lp_replay_s", "s", median(replays), len(replays)},
	)
	return res, nil
}

// planStair is engine.Simulate(PolicyOfflineHorizon) spelled out, so the
// model build plus solve and the replay get spans of their own.
func planStair(opts engine.Options, traces *engine.Traces, c opCtx) (*engine.Report, error) {
	id := c.begin("engine.new_replay_session")
	sess, err := engine.NewReplaySession(engine.PolicyOfflineHorizon, opts, traces)
	c.end(id)
	if err != nil {
		return nil, err
	}
	id = c.begin("engine.replay")
	defer c.end(id)
	for !sess.Done() {
		if _, err := sess.StepReplay(); err != nil {
			return nil, err
		}
	}
	return sess.Finish()
}

// planOutcome is what checkPlan checks.
type planOutcome struct {
	cost, unserved, imported, exported float64
}

// checkPlan checks one plan: no unserved energy, routed energy conserved,
// the same cost as the input's first solve, and — where the input has a
// reference — a cost within relTolerance of it. The tolerance is
// objective-level because these LPs have alternate optima.
func checkPlan(s *sampler, refs refTable, key string, k int, first *firstSolve, out planOutcome) {
	switch {
	case !(out.cost > 0) || math.IsInf(out.cost, 0):
		s.fail(fmt.Errorf("%s[%d]: cost %g", key, k, out.cost))
	case out.unserved > energyEpsilon:
		s.fail(fmt.Errorf("%s[%d]: %g MWh unserved", key, k, out.unserved))
	case math.Abs(out.imported-out.exported) > energyEpsilon*max(1, out.exported):
		s.fail(fmt.Errorf("%s[%d]: imported %g MWh, exported %g MWh", key, k, out.imported, out.exported))
	case first.done && out.cost != first.cost:
		s.fail(fmt.Errorf("%s[%d]: cost %.17g, first solve %.17g", key, k, out.cost, first.cost))
	default:
		if ref, ok := refs.at(key, k); ok && math.Abs(out.cost-ref) > relTolerance*math.Abs(ref) {
			s.fail(fmt.Errorf("%s[%d]: cost %.17g, reference %.17g", key, k, out.cost, ref))
		}
	}
	if !first.done {
		*first = firstSolve{out.cost, true}
	}
}

func sizeName(small bool) string {
	if small {
		return "small"
	}
	return "full"
}
