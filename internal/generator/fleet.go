package generator

import (
	"fmt"
	"sort"
)

// Fleet is an ordered collection of heterogeneous on-site generation
// units dispatched together: the multi-unit generalization of the single
// self-generation source of arXiv:1303.6775, stepping toward the
// unit-commitment formulations of the power-systems literature. Units
// keep their individual physics (capacity, minimum stable load, fuel
// curve, startup cost and lag, CO₂ intensity); the fleet executes one
// request per unit each slot.
//
// A Fleet with no units is inert: every method is a no-op returning
// zeros, so fleet-free configurations reproduce fleet-free results
// exactly (the empty-fleet byte-identity invariant).
type Fleet struct {
	units []*Generator

	// Per-slot buffers reused across calls (see Observe and Dispatch):
	// the engine consumes each slot's views before the next slot
	// begins, so one buffer per role suffices for a whole run.
	obs  []UnitObs
	outs []Outcome
}

// MeritOrder returns the unit indices in ascending base-marginal-price
// order; ties resolve by unit index so the order (and therefore every
// plan that follows it) is deterministic.
func MeritOrder(specs []Params) []int {
	merit := make([]int, len(specs))
	for i := range merit {
		merit[i] = i
	}
	sort.SliceStable(merit, func(a, b int) bool {
		return specs[merit[a]].MarginalAt(0) < specs[merit[b]].MarginalAt(0)
	})
	return merit
}

// NewFleet builds a cold fleet from the unit specifications, preserving
// their order (unit i of the fleet is specs[i]).
func NewFleet(specs []Params) (*Fleet, error) {
	f := &Fleet{units: make([]*Generator, len(specs))}
	for i, p := range specs {
		g, err := New(p)
		if err != nil {
			return nil, fmt.Errorf("unit %d: %w", i, err)
		}
		f.units[i] = g
	}
	return f, nil
}

// Size returns the number of units.
func (f *Fleet) Size() int { return len(f.units) }

// Unit returns unit i (fleet order, not merit order).
func (f *Fleet) Unit(i int) *Generator { return f.units[i] }

// Tick advances every unit's synchronization countdown (one call per
// fine slot, before the controller observes the fleet).
func (f *Fleet) Tick() {
	for _, u := range f.units {
		u.Tick()
	}
}

// UnitObs is one unit's dispatch state as a controller observes it.
type UnitObs struct {
	// Running reports a synchronized, producing-capable unit.
	Running bool
	// Starting reports an in-progress start (lag not yet elapsed).
	Starting bool
	// MinMWh and MaxMWh are the deliverable output band this slot
	// ((0, 0) when the unit cannot produce now).
	MinMWh float64
	// MaxMWh is the band's upper end.
	MaxMWh float64
	// RequestMax is the largest meaningful dispatch request (exceeds
	// MaxMWh only for an off unit behind a startup lag, where a positive
	// request signals a cold start delivering nothing yet).
	RequestMax float64
}

// Observe returns every unit's dispatch state in fleet order (nil for an
// empty fleet). The slice is fleet-owned and valid until the next
// Observe call.
func (f *Fleet) Observe() []UnitObs {
	if len(f.units) == 0 {
		return nil
	}
	if cap(f.obs) < len(f.units) {
		f.obs = make([]UnitObs, len(f.units))
	}
	obs := f.obs[:len(f.units)]
	for i, u := range f.units {
		min, max := u.Window()
		obs[i] = UnitObs{
			Running:    u.Running(),
			Starting:   u.Starting(),
			MinMWh:     min,
			MaxMWh:     max,
			RequestMax: u.RequestMax(),
		}
	}
	return obs
}

// Dispatch executes one slot: requests[i] goes to unit i (missing
// entries are zero, so a short — or nil — slice shuts the tail of the
// fleet down). Outcomes come back in fleet order, in a fleet-owned slice
// valid until the next Dispatch call.
func (f *Fleet) Dispatch(requests []float64) []Outcome {
	if len(f.units) == 0 {
		return nil
	}
	if cap(f.outs) < len(f.units) {
		f.outs = make([]Outcome, len(f.units))
	}
	outs := f.outs[:len(f.units)]
	for i, u := range f.units {
		req := 0.0
		if i < len(requests) {
			req = requests[i]
		}
		outs[i] = u.Dispatch(req)
	}
	return outs
}

// State captures every unit's mutable state in fleet order for a
// checkpoint (nil for an empty fleet).
func (f *Fleet) State() []State {
	if len(f.units) == 0 {
		return nil
	}
	states := make([]State, len(f.units))
	for i, u := range f.units {
		states[i] = u.State()
	}
	return states
}

// CheckState reports whether Restore accepts states: one state per unit
// (the checkpoint's config hash already pins the unit specs, this is a
// second line of defense), each accepted by its unit's CheckState.
func (f *Fleet) CheckState(states []State) error {
	if len(states) != len(f.units) {
		return fmt.Errorf("generator: checkpoint has %d unit states, fleet has %d units",
			len(states), len(f.units))
	}
	for i, s := range states {
		if err := f.units[i].CheckState(s); err != nil {
			return fmt.Errorf("unit %d: %w", i, err)
		}
	}
	return nil
}

// Restore overwrites every unit's mutable state from a checkpoint that
// CheckState accepts. Every unit is checked before any is assigned, so
// on error the fleet is unchanged.
func (f *Fleet) Restore(states []State) error {
	if err := f.CheckState(states); err != nil {
		return err
	}
	for i, s := range states {
		if err := f.units[i].Restore(s); err != nil {
			return fmt.Errorf("unit %d: %w", i, err)
		}
	}
	return nil
}
