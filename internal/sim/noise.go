package sim

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"

	"github.com/smartdpss/smartdpss/internal/jsonenc"
	"github.com/smartdpss/smartdpss/internal/rng"
)

// NoisyController wraps a controller and perturbs the exogenous fields of
// its observations — demand, renewable production and prices — with
// uniform multiplicative errors, reproducing the robustness experiment of
// Sec. VI-C ("uniformly distributed ±50% errors"). Internal state
// (backlog, battery, market headroom) is left exact: the DPSS always knows
// its own queues, it is the world it mis-estimates. The engine executes
// decisions against the true traces, so estimation errors surface as real
// waste, purchases or shed load.
type NoisyController struct {
	inner Controller
	rng   *rand.Rand
	frac  float64

	// seed and draws position the RNG for checkpoints: a rand.Rand exposes
	// no state extraction, but the stream is fully determined by the seed
	// and the number of draws consumed, so a restore re-seeds and replays
	// draws discards (see RestoreState). maxDraws bounds what a restore
	// replays: the most a session's horizon can consume (NewSession sets
	// it; zero outside a session).
	seed     int64
	draws    uint64
	maxDraws uint64

	// noisy is PlanFine's perturbed copy of the observation. It lives
	// here, not on PlanFine's stack, because the pointer the inner
	// controller receives would otherwise escape to the heap every slot.
	noisy FineObs
}

// noiseDrawsPerPlan is the number of draws one PlanFine or PlanCoarse
// call consumes: one per exogenous field it perturbs.
const noiseDrawsPerPlan = 4

// maxNoiseDraws is the number of draws a horizon of fine slots, planned
// in coarse intervals of T slots, consumes.
func maxNoiseDraws(horizon, T int) uint64 {
	coarse := (horizon + T - 1) / T
	return noiseDrawsPerPlan * uint64(horizon+coarse)
}

var _ Controller = (*NoisyController)(nil)

// WithObservationNoise wraps inner so that every observation's exogenous
// fields are scaled by independent factors drawn uniformly from
// [1−frac, 1+frac].
func WithObservationNoise(inner Controller, seed int64, frac float64) (*NoisyController, error) {
	if inner == nil {
		return nil, errors.New("sim: nil inner controller")
	}
	if frac < 0 || frac >= 1 {
		return nil, errors.New("sim: noise fraction must be in [0, 1)")
	}
	return &NoisyController{
		inner: inner,
		rng:   rand.New(rng.NewSource(seed)),
		frac:  frac,
		seed:  seed,
	}, nil
}

// Name implements Controller.
func (n *NoisyController) Name() string { return n.inner.Name() + "+noise" }

// CoarseSlots implements Controller.
func (n *NoisyController) CoarseSlots() int { return n.inner.CoarseSlots() }

// PlanCoarse perturbs the exogenous coarse observations and delegates.
func (n *NoisyController) PlanCoarse(obs CoarseObs) float64 {
	obs.PriceLT *= n.factor()
	obs.DemandDS *= n.factor()
	obs.DemandDT *= n.factor()
	obs.Renewable *= n.factor()
	return n.inner.PlanCoarse(obs)
}

// PlanFine perturbs the exogenous fine observations, delegates, and clamps
// the inner decision back to the true admissible set (the inner controller
// sized its decision against mis-estimated inputs; physical limits still
// come from the truth).
func (n *NoisyController) PlanFine(obs *FineObs) Decision {
	noisy := &n.noisy
	*noisy = *obs
	noisy.PriceRT *= n.factor()
	noisy.DemandDS *= n.factor()
	noisy.DemandDT *= n.factor()
	noisy.Renewable *= n.factor()
	dec := n.inner.PlanFine(noisy)

	dec.Grt = clamp(dec.Grt, 0, max(0,
		min(obs.RTHeadroom, obs.Smax-obs.LongTermDue-obs.Renewable)))
	dec.ServeDT = clamp(dec.ServeDT, 0, min(obs.Backlog, obs.SdtMax))
	dec.Charge = clamp(dec.Charge, 0, obs.MaxCharge)
	dec.Discharge = clamp(dec.Discharge, 0, obs.MaxDischarge)
	for u := range dec.GenerateUnits {
		limit := 0.0
		if u < len(obs.GenUnits) {
			limit = obs.GenUnits[u].RequestMax
		}
		dec.GenerateUnits[u] = clamp(dec.GenerateUnits[u], 0, max(0, limit))
	}
	return dec
}

// RecordOutcome passes outcomes through unperturbed: queue updates use the
// executed truth (Algorithm 1 step 3 reads the actual queues).
func (n *NoisyController) RecordOutcome(out Outcome) { n.inner.RecordOutcome(out) }

func (n *NoisyController) factor() float64 {
	n.draws++
	return 1 + n.frac*(2*n.rng.Float64()-1)
}

var _ Snapshotter = (*NoisyController)(nil)

// noisyState is the wrapper's checkpoint form: the RNG position (seed +
// draws consumed) and the inner controller's own blob. The noise
// fraction is configuration and stays outside.
type noisyState struct {
	Seed  int64           `json:"seed"`
	Draws uint64          `json:"draws"`
	Inner json.RawMessage `json:"inner,omitempty"`
}

// AppendState implements Snapshotter. The wrapped controller must itself
// be a Snapshotter, or ErrSnapshotUnsupported is returned; its state is
// appended in place as the "inner" field.
func (n *NoisyController) AppendState(dst []byte) ([]byte, error) {
	snap, ok := n.inner.(Snapshotter)
	if !ok {
		return nil, fmt.Errorf("%w: wrapped controller %q", ErrSnapshotUnsupported, n.inner.Name())
	}
	e := jsonenc.NewEncoder(dst)
	e.Open()
	e.Key("seed").Int64(n.seed)
	e.Key("draws").Uint64(n.draws)
	buf, err := e.Key("inner").Bytes()
	if err != nil {
		return nil, err
	}
	mark := len(buf)
	buf, err = snap.AppendState(buf)
	if err != nil {
		return nil, err
	}
	if len(buf) == mark {
		// An empty inner state is omitted, as omitempty omits it.
		buf = buf[:mark-len(`,"inner":`)]
	}
	return append(buf, '}'), nil
}

// RestoreState implements Snapshotter. The RNG is repositioned by
// re-seeding and discarding the recorded number of draws — the uniform
// stream then continues exactly where the snapshot left it. The seed,
// the draw count (at most what the session's horizon can consume) and
// the inner controller's state are all checked before anything is
// assigned.
func (n *NoisyController) RestoreState(data []byte) error {
	snap, ok := n.inner.(Snapshotter)
	if !ok {
		return fmt.Errorf("%w: wrapped controller %q", ErrSnapshotUnsupported, n.inner.Name())
	}
	var s noisyState
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("sim: decode noise state: %w", err)
	}
	if s.Seed != n.seed {
		return fmt.Errorf("%w: noise seed %d, session has %d", ErrSnapshotMismatch, s.Seed, n.seed)
	}
	if s.Draws > n.maxDraws {
		return fmt.Errorf("%w: %d noise draws, the horizon consumes at most %d",
			ErrSnapshotMismatch, s.Draws, n.maxDraws)
	}
	if err := snap.RestoreState(s.Inner); err != nil {
		return err
	}
	r := rand.New(rng.NewSource(s.Seed))
	for i := uint64(0); i < s.Draws; i++ {
		r.Float64()
	}
	n.rng = r
	n.draws = s.Draws
	return nil
}
