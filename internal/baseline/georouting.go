package baseline

import (
	"errors"
	"fmt"

	"github.com/smartdpss/smartdpss/internal/lp"
	"github.com/smartdpss/smartdpss/internal/trace"
)

// GeoSite describes one datacenter inside a coupled routing+supply
// solve: its supply-side configuration and traces, plus the routing
// constraints the front end applies to it — a per-slot cap on the
// delay-sensitive demand it may end up serving and a latency penalty
// charged per imported MWh.
type GeoSite struct {
	// Config is the site's supply-side configuration (markets, battery,
	// fleet), exactly as a standalone OfflineHorizon would consume it.
	Config Config
	// Set is the site's trace set; DemandDS is the site's home demand
	// before routing.
	Set *trace.Set
	// ImportPenaltyUSD is the cost in USD per MWh of demand moved to
	// this site, the LP's proxy for the latency of serving a request
	// away from its home region.
	ImportPenaltyUSD float64
	// RouteCapMWh caps the site's post-routing delay-sensitive demand
	// per slot. Zero means uncapped.
	RouteCapMWh float64
}

// GeoRoutingPlan is the solved joint plan's routing projection: the
// post-routing delay-sensitive demand per site per slot, and the moved
// energy totals. The supply-side decisions are deliberately not
// extracted — the geo runner replays the routed demand through each
// site's own controller, so the plan stays policy-agnostic.
type GeoRoutingPlan struct {
	// Objective is the joint LP optimum: total supply cost across all
	// sites plus the routing penalties.
	Objective float64
	// RoutedDS[s][i] is site s's delay-sensitive demand in slot i after
	// routing (home − exported + imported, clamped at zero).
	RoutedDS [][]float64
	// ImportMWh and ExportMWh are each site's total moved energy.
	ImportMWh []float64
	ExportMWh []float64
	// PenaltyUSD is the total routing penalty Σ_s penalty_s·import_s
	// included in Objective.
	PenaltyUSD float64
}

// SolveGeoHorizon solves the coupled routing+supply LP over the whole
// horizon: every site's staircase block (addStairBlock, the builder
// OfflineHorizon uses) with its routing part — per slot an export
// variable out ∈ [0, home] and a penalized import variable in ≥ 0 that
// shift the balance row's demand, and a per-site routing-capacity row —
// plus one per-slot conservation row Σout − Σin = 0 coupling the
// sites. With one site, or with penalties that exceed every price gap,
// the coupling is inactive and the optimum equals the sum of
// independent per-site horizon solves — the parity property the tests
// pin.
func SolveGeoHorizon(sites []GeoSite) (*GeoRoutingPlan, error) {
	if len(sites) == 0 {
		return nil, errors.New("baseline: geo solve needs at least one site")
	}
	for s := range sites {
		if err := sites[s].Config.Validate(); err != nil {
			return nil, fmt.Errorf("baseline: geo site %d: %w", s, err)
		}
		if err := sites[s].Set.Validate(); err != nil {
			return nil, fmt.Errorf("baseline: geo site %d: %w", s, err)
		}
		if sites[s].ImportPenaltyUSD < 0 {
			return nil, fmt.Errorf("baseline: geo site %d: negative ImportPenaltyUSD", s)
		}
		if sites[s].RouteCapMWh < 0 {
			return nil, fmt.Errorf("baseline: geo site %d: negative RouteCapMWh", s)
		}
	}
	H := sites[0].Set.Horizon()
	slotMinutes := sites[0].Set.DemandDS.SlotMinutes
	for s := 1; s < len(sites); s++ {
		if sites[s].Set.Horizon() != H {
			return nil, fmt.Errorf("baseline: geo site %d has horizon %d, want %d",
				s, sites[s].Set.Horizon(), H)
		}
		if sites[s].Set.DemandDS.SlotMinutes != slotMinutes {
			return nil, fmt.Errorf("baseline: geo site %d has %d-minute slots, want %d",
				s, sites[s].Set.DemandDS.SlotMinutes, slotMinutes)
		}
	}

	var st lpState
	prob := st.problem()
	nS := len(sites)
	blocks := make([]stairBlock, nS)
	for s := range sites {
		site := &sites[s]
		blocks[s] = st.addStairBlock(prob, site.Config, site.Set, horizonWindow(site.Config, site.Set),
			&stairRoute{penaltyUSD: site.ImportPenaltyUSD, capMWh: site.RouteCapMWh})
	}

	// Per-slot conservation: demand leaves one site only by arriving at
	// another in the same slot.
	for i := 0; i < H; i++ {
		terms := st.terms[:0]
		for s := 0; s < nS; s++ {
			terms = append(terms,
				lp.Term{Var: blocks[s].out[i], Coeff: 1},
				lp.Term{Var: blocks[s].in[i], Coeff: -1},
			)
		}
		st.terms = terms
		prob.AddConstraint(lp.EQ, 0, terms...)
	}

	sol, err := st.solve(prob)
	if err != nil {
		return nil, fmt.Errorf("baseline: geo LP: %w", err)
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("baseline: geo LP: %v", sol.Status)
	}

	plan := &GeoRoutingPlan{
		Objective: sol.Objective,
		RoutedDS:  make([][]float64, nS),
		ImportMWh: make([]float64, nS),
		ExportMWh: make([]float64, nS),
	}
	for s := range sites {
		routed := make([]float64, H)
		for i := 0; i < H; i++ {
			in := sol.Value(blocks[s].in[i])
			out := sol.Value(blocks[s].out[i])
			plan.ImportMWh[s] += in
			plan.ExportMWh[s] += out
			v := sites[s].Set.DemandDS.At(i) - out + in
			if v < 0 {
				v = 0
			}
			routed[i] = v
		}
		plan.RoutedDS[s] = routed
		plan.PenaltyUSD += sites[s].ImportPenaltyUSD * plan.ImportMWh[s]
	}
	return plan, nil
}
