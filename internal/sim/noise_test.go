package sim

import (
	"math"
	"testing"
)

// recordingController captures the observations it is shown.
type recordingController struct {
	fineObs   []FineObs
	coarseObs []CoarseObs
	outcomes  []Outcome
}

func (r *recordingController) Name() string     { return "recorder" }
func (r *recordingController) CoarseSlots() int { return 4 }
func (r *recordingController) PlanCoarse(obs CoarseObs) float64 {
	r.coarseObs = append(r.coarseObs, obs)
	return 0
}
func (r *recordingController) PlanFine(obs *FineObs) Decision {
	r.fineObs = append(r.fineObs, *obs)
	return Decision{}
}
func (r *recordingController) RecordOutcome(out Outcome) { r.outcomes = append(r.outcomes, out) }

func TestWithObservationNoiseValidation(t *testing.T) {
	if _, err := WithObservationNoise(nil, 1, 0.5); err == nil {
		t.Error("nil inner accepted")
	}
	inner := &recordingController{}
	if _, err := WithObservationNoise(inner, 1, -0.1); err == nil {
		t.Error("negative fraction accepted")
	}
	if _, err := WithObservationNoise(inner, 1, 1.0); err == nil {
		t.Error("fraction 1.0 accepted")
	}
}

func TestNoisyControllerPerturbsExogenousOnly(t *testing.T) {
	inner := &recordingController{}
	noisy, err := WithObservationNoise(inner, 42, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if noisy.Name() != "recorder+noise" {
		t.Errorf("Name = %q", noisy.Name())
	}
	if noisy.CoarseSlots() != 4 {
		t.Errorf("CoarseSlots = %d", noisy.CoarseSlots())
	}

	obs := FineObs{
		PriceRT: 50, DemandDS: 1, DemandDT: 0.5, Renewable: 0.3,
		Backlog: 2, Battery: 0.4, RTHeadroom: 1, SdtMax: 1, Smax: 4,
		MaxCharge: 0.5, MaxDischarge: 0.5,
	}
	noisy.PlanFine(&obs)
	got := inner.fineObs[0]
	// Exogenous fields perturbed within ±50%.
	for _, f := range []struct {
		name       string
		seen, true float64
	}{
		{"PriceRT", got.PriceRT, 50},
		{"DemandDS", got.DemandDS, 1},
		{"DemandDT", got.DemandDT, 0.5},
		{"Renewable", got.Renewable, 0.3},
	} {
		if f.seen < 0.5*f.true-1e-12 || f.seen > 1.5*f.true+1e-12 {
			t.Errorf("%s = %g outside ±50%% of %g", f.name, f.seen, f.true)
		}
	}
	// Internal state passes through exactly.
	if got.Backlog != 2 || got.Battery != 0.4 || got.RTHeadroom != 1 {
		t.Errorf("internal state perturbed: %+v", got)
	}
}

func TestNoisyControllerClampsDecisions(t *testing.T) {
	over := &scriptController{
		name: "over",
		decide: func(o FineObs) Decision {
			// The inner controller sizes against its (noisy) view; return
			// something beyond every true cap.
			return Decision{Grt: 100, ServeDT: 100, Discharge: 100}
		},
	}
	noisy, err := WithObservationNoise(over, 7, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	obs := FineObs{
		PriceRT: 50, DemandDS: 1, Backlog: 0.7, RTHeadroom: 1.2,
		SdtMax: 1, Smax: 4, MaxCharge: 0.5, MaxDischarge: 0.4,
	}
	dec := noisy.PlanFine(&obs)
	if dec.Grt > obs.RTHeadroom+1e-12 {
		t.Errorf("Grt = %g beyond true headroom", dec.Grt)
	}
	if dec.ServeDT > obs.Backlog+1e-12 {
		t.Errorf("ServeDT = %g beyond true backlog", dec.ServeDT)
	}
	if dec.Discharge > obs.MaxDischarge+1e-12 {
		t.Errorf("Discharge = %g beyond true cap", dec.Discharge)
	}
}

func TestNoisyControllerOutcomesPassThrough(t *testing.T) {
	inner := &recordingController{}
	noisy, err := WithObservationNoise(inner, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	noisy.RecordOutcome(Outcome{ServedDT: 0.3, BacklogBefore: 1})
	if len(inner.outcomes) != 1 || inner.outcomes[0].ServedDT != 0.3 {
		t.Error("outcome not passed through unperturbed")
	}
}

func TestTrailingMeans(t *testing.T) {
	var m TrailingMeans
	if m.Ready() {
		t.Error("fresh estimator reports ready")
	}
	if a, b, c := m.Means(); a != 0 || b != 0 || c != 0 {
		t.Error("empty means not zero")
	}
	m.Observe(1, 2, 3)
	m.Observe(3, 4, 5)
	if !m.Ready() {
		t.Error("estimator with data not ready")
	}
	dds, ddt, ren := m.Means()
	if dds != 2 || ddt != 3 || ren != 4 {
		t.Errorf("means = %g, %g, %g", dds, ddt, ren)
	}
	m.Reset()
	if m.Ready() {
		t.Error("reset estimator still ready")
	}
}

func TestNoisyControllerZeroFraction(t *testing.T) {
	inner := &recordingController{}
	noisy, err := WithObservationNoise(inner, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	obs := FineObs{PriceRT: 50, DemandDS: 1, Smax: 4, RTHeadroom: 2}
	noisy.PlanFine(&obs)
	got := inner.fineObs[0]
	if math.Abs(got.PriceRT-50) > 1e-12 || math.Abs(got.DemandDS-1) > 1e-12 {
		t.Error("zero fraction perturbed observations")
	}
}
