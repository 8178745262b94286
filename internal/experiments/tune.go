package experiments

import (
	"fmt"
	"math"
	"strings"

	dpss "github.com/smartdpss/smartdpss/internal/engine"
	"github.com/smartdpss/smartdpss/internal/optimize"
	"github.com/smartdpss/smartdpss/internal/suite"
)

// TuneOptions scopes a self-tuning run: which policy arm to tune, the
// starting engine options, and the evaluation budget. The simulator is
// the objective — each candidate is scored over TuneOptions.Suite's
// seeds (Config.Seeds trace draws fanned out on the suite worker pool)
// as a weighted blend of the mean and the worst per-slot cost, so tuning
// cannot overfit one lucky trace.
type TuneOptions struct {
	// Policy is the arm to tune: PolicySmartDPSS (V, ε, T, and
	// CommitWindow when a fleet is configured) or PolicyLyapunov (V
	// scale and battery target θ).
	Policy dpss.Policy
	// Base is the starting point; tuned parameters override its fields,
	// everything else is inherited by every candidate.
	Base dpss.Options
	// Suite scopes the evaluation: trace horizon, seed family and the
	// worker-pool parallelism. Results depend only on its Days/Seed/
	// Seeds, never on Parallel.
	Suite Config
	// Seed drives the optimizer's restart jitter (not the traces).
	Seed int64
	// MaxEvals bounds simulator evaluations (default 60).
	MaxEvals int
	// WorstWeight blends the worst seed into the score:
	// (1−w)·mean + w·worst. Zero selects the 0.25 default; negative
	// disables the guard (pure mean).
	WorstWeight float64
}

// TuneResult reports a finished tuning run.
type TuneResult struct {
	// Policy is the tuned arm.
	Policy dpss.Policy
	// Names labels the tuned dimensions, in vector order.
	Names []string
	// Default is the starting parameter vector (from Base).
	Default []float64
	// Tuned is the winning parameter vector.
	Tuned []float64
	// Options is Base with the tuned vector applied — ready for Simulate.
	Options dpss.Options
	// DefaultScore and TunedScore are the objective (blended $/slot) at
	// Default and Tuned.
	DefaultScore float64
	TunedScore   float64
	// Evals counts simulator-backed objective evaluations.
	Evals int
	// Trajectory is the optimizer's incumbent history.
	Trajectory []optimize.Step
}

// Gap returns the fractional cost reduction of Tuned vs Default
// (positive = tuned is cheaper).
func (r *TuneResult) Gap() float64 {
	if r.DefaultScore == 0 {
		return 0
	}
	return 1 - r.TunedScore/r.DefaultScore
}

// ParamString renders the tuned vector as "name=value" pairs.
func (r *TuneResult) ParamString() string {
	parts := make([]string, len(r.Names))
	for i, n := range r.Names {
		parts[i] = fmt.Sprintf("%s=%.3g", n, r.Tuned[i])
	}
	return strings.Join(parts, " ")
}

// tuneSpace is one policy arm's searchable parameter box.
type tuneSpace struct {
	names   []string
	bounds  optimize.Bounds
	x0      []float64
	integer []bool
	apply   func(x []float64, o *dpss.Options)
}

// quantize snaps integer dimensions onto the lattice.
func (s tuneSpace) quantize(x []float64) {
	for i, isInt := range s.integer {
		if isInt {
			x[i] = math.Round(x[i])
		}
	}
}

// newTuneSpace builds the search space for a policy arm. SmartDPSS
// exposes the paper's knobs (V, ε, T, plus the unit-commitment window
// when a fleet is configured); Lyapunov exposes its V as a dimensionless
// scale on the policy's own scale-aware default plus the battery target
// fraction θ.
func newTuneSpace(policy dpss.Policy, base dpss.Options) (tuneSpace, error) {
	switch policy {
	case dpss.PolicySmartDPSS:
		s := tuneSpace{
			names:   []string{"V", "eps", "T"},
			bounds:  optimize.Bounds{Lo: []float64{0.05, 0.1, 3}, Hi: []float64{5, 2, 48}},
			x0:      []float64{base.V, base.Epsilon, float64(base.T)},
			integer: []bool{false, false, true},
		}
		hasFleet := len(base.Fleet) > 0
		if hasFleet {
			s.names = append(s.names, "W")
			s.bounds.Lo = append(s.bounds.Lo, 1)
			s.bounds.Hi = append(s.bounds.Hi, 48)
			s.x0 = append(s.x0, math.Max(1, float64(base.CommitWindow)))
			s.integer = append(s.integer, true)
		}
		s.apply = func(x []float64, o *dpss.Options) {
			o.V = x[0]
			o.Epsilon = x[1]
			o.T = int(math.Round(x[2]))
			if hasFleet {
				o.CommitWindow = int(math.Round(x[3]))
			}
		}
		return s, nil
	case dpss.PolicyLyapunov:
		bc := base.BaselineConfig()
		defV := (bc.Battery.CapacityMWh - bc.Battery.MinLevelMWh) / bc.PmaxUSD
		if defV <= 0 {
			return tuneSpace{}, fmt.Errorf("experiments: tune lyapunov: battery disabled (no usable span)")
		}
		s := tuneSpace{
			names:   []string{"vscale", "theta"},
			bounds:  optimize.Bounds{Lo: []float64{0.1, 0.05}, Hi: []float64{20, 0.95}},
			x0:      []float64{1, 0.6},
			integer: []bool{false, false},
		}
		if base.LyapunovV > 0 {
			s.x0[0] = base.LyapunovV / defV
		}
		if base.LyapunovTheta > 0 {
			s.x0[1] = base.LyapunovTheta
		}
		s.apply = func(x []float64, o *dpss.Options) {
			o.LyapunovV = x[0] * defV
			o.LyapunovTheta = x[1]
		}
		return s, nil
	default:
		return tuneSpace{}, fmt.Errorf("experiments: policy %q is not tunable (want %s or %s)",
			policy, dpss.PolicySmartDPSS, dpss.PolicyLyapunov)
	}
}

// NewTuneObjective builds the simulator-backed objective for a tuning
// run: each evaluation applies the candidate vector to the base options
// and scores it as (1−w)·mean + w·worst of the per-slot cost over the
// suite's seeds, each seed a pool job with its own derived trace seed.
// The score depends only on the candidate and the suite's Days/Seed/
// Seeds — never on Parallel — which is what makes the whole tuning run
// byte-identical at every parallelism level.
func NewTuneObjective(topts TuneOptions) (optimize.Objective, error) {
	space, err := newTuneSpace(topts.Policy, topts.Base)
	if err != nil {
		return nil, err
	}
	w := topts.WorstWeight
	if w == 0 {
		w = 0.25
	} else if w < 0 {
		w = 0
	}
	cfg := topts.Suite
	seeds := cfg.SeedCount()
	return func(x []float64) (float64, error) {
		opts := topts.Base
		space.apply(x, &opts)
		costs, err := suite.Map(cfg, seeds, func(s int) (float64, error) {
			tc := cfg.TraceConfig()
			tc.Seed = cfg.PointSeed(s)
			traces, err := suite.Traces(tc)
			if err != nil {
				return 0, err
			}
			defer suite.Release(traces)
			rep, err := simulate(topts.Policy, opts, traces)
			if err != nil {
				return 0, err
			}
			return rep.TimeAvgCostUSD, nil
		})
		if err != nil {
			return 0, err
		}
		mean, worst := 0.0, math.Inf(-1)
		for _, c := range costs {
			mean += c
			worst = math.Max(worst, c)
		}
		mean /= float64(len(costs))
		return (1-w)*mean + w*worst, nil
	}, nil
}

// RunTune tunes one policy arm against the simulator: a deterministic
// seeded Nelder–Mead over the arm's parameter box, with the multi-seed
// blended cost as the objective. Same TuneOptions → bit-identical
// TuneResult at every Suite.Parallel level.
func RunTune(topts TuneOptions) (*TuneResult, error) {
	space, err := newTuneSpace(topts.Policy, topts.Base)
	if err != nil {
		return nil, err
	}
	obj, err := NewTuneObjective(topts)
	if err != nil {
		return nil, err
	}
	x0 := append([]float64(nil), space.x0...)
	space.bounds.Clamp(x0)
	space.quantize(x0)
	defScore, err := obj(x0)
	if err != nil {
		return nil, err
	}
	maxEvals := topts.MaxEvals
	if maxEvals <= 0 {
		maxEvals = 60
	}
	res, err := optimize.Minimize(obj, x0, space.bounds, optimize.Options{
		Seed:     topts.Seed,
		MaxEvals: maxEvals,
		Quantize: space.quantize,
	})
	if err != nil {
		return nil, err
	}
	tuned := topts.Base
	space.apply(res.X, &tuned)
	return &TuneResult{
		Policy:       topts.Policy,
		Names:        space.names,
		Default:      x0,
		Tuned:        res.X,
		Options:      tuned,
		DefaultScore: defScore,
		TunedScore:   res.F,
		Evals:        res.Evals + 1,
		Trajectory:   res.Trajectory,
	}, nil
}

// TuneGap (TUNE-1) tunes both tunable policy arms against the suite's
// seed family and reports the tuned-vs-default cost gap — the measured
// value of simulator-in-the-loop parameter search over the paper's
// hand-set defaults.
func TuneGap(cfg Config) (*Table, error) {
	t := &Table{
		Title: "TUNE-1 — tuned vs default controller parameters",
		Note: "seeded Nelder–Mead over the simulator; score = 0.75·mean + 0.25·worst\n" +
			"$/slot across the suite seed family; gap > 0 means tuning found a cheaper point.",
		Columns: []string{"policy", "default $/slot", "tuned $/slot", "gap", "tuned params", "evals"},
	}
	for _, policy := range []dpss.Policy{dpss.PolicySmartDPSS, dpss.PolicyLyapunov} {
		res, err := RunTune(TuneOptions{
			Policy: policy,
			Base:   dpss.DefaultOptions(),
			Suite:  cfg,
			Seed:   1,
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(string(policy), fmtUSD(res.DefaultScore), fmtUSD(res.TunedScore),
			fmtPct(res.Gap()), res.ParamString(), fmt.Sprintf("%d", res.Evals))
	}
	return t, nil
}

// TuneTransfer (TUNE-2) tests whether tuned parameters generalize: tune
// SmartDPSS on the suite's training seeds at the base price regime, then
// replay default-vs-tuned on held-out seeds under scaled price series.
// The claim under test: the tuned point is not an artifact of the
// training traces.
func TuneTransfer(cfg Config) (*Table, error) {
	res, err := RunTune(TuneOptions{
		Policy: dpss.PolicySmartDPSS,
		Base:   dpss.DefaultOptions(),
		Suite:  cfg,
		Seed:   1,
	})
	if err != nil {
		return nil, err
	}

	scales := []float64{0.7, 1.0, 1.4}
	seeds := cfg.SeedCount()
	type point struct{ def, tuned float64 }
	// One pool job per (regime, held-out seed): seeds offset past the
	// training family so evaluation never reuses a tuning trace.
	runs, err := suite.Map(cfg, len(scales)*seeds, func(i int) (point, error) {
		scale := scales[i/seeds]
		tc := cfg.TraceConfig()
		tc.Seed = cfg.PointSeed(seeds + i%seeds)
		tc.PriceScale = scale
		traces, err := suite.Traces(tc)
		if err != nil {
			return point{}, err
		}
		defer suite.Release(traces)
		// The price cap moves with the regime (as in the provisioning
		// sweeps), identically for both arms.
		defOpts := dpss.DefaultOptions()
		defOpts.PmaxUSD *= scale
		def, err := simulate(dpss.PolicySmartDPSS, defOpts, traces)
		if err != nil {
			return point{}, err
		}
		tunedOpts := res.Options
		tunedOpts.PmaxUSD *= scale
		tuned, err := simulate(dpss.PolicySmartDPSS, tunedOpts, traces)
		if err != nil {
			return point{}, err
		}
		return point{def: def.TimeAvgCostUSD, tuned: tuned.TimeAvgCostUSD}, nil
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: "TUNE-2 — tuning transfer across held-out seeds and price regimes",
		Note: fmt.Sprintf("SmartDPSS tuned on the training seed family at PriceScale 1.0 (%s),\n"+
			"then replayed on held-out seeds; mean $/slot per regime.", res.ParamString()),
		Columns: []string{"price regime", "default $/slot", "tuned $/slot", "gap"},
	}
	for si, scale := range scales {
		var def, tuned float64
		for s := 0; s < seeds; s++ {
			p := runs[si*seeds+s]
			def += p.def
			tuned += p.tuned
		}
		def /= float64(seeds)
		tuned /= float64(seeds)
		t.AddRow(fmt.Sprintf("PriceScale %.1f", scale), fmtUSD(def), fmtUSD(tuned),
			fmtPct(1-tuned/def))
	}
	return t, nil
}

// TuneFrontier (TUNE-3) traces the SmartDPSS-vs-Lyapunov cost frontier:
// each arm's V swept over its range on the base trace, plus the tuned
// point of each arm — the head-to-head answer to whether forecast-driven
// multi-source dispatch beats forecast-free battery control, and by how
// much at the knee.
func TuneFrontier(cfg Config) (*Table, error) {
	traces, err := baseTraces(cfg)
	if err != nil {
		return nil, err
	}
	defer suite.Release(traces)

	smartVs := []float64{0.1, 0.5, 1, 2, 5}
	lyapScales := []float64{0.1, 0.5, 1, 2, 5, 10, 20}
	defV := (dpss.DefaultOptions().BaselineConfig().Battery.CapacityMWh -
		dpss.DefaultOptions().BaselineConfig().Battery.MinLevelMWh) /
		dpss.DefaultOptions().BaselineConfig().PmaxUSD

	type point struct{ cost, delay float64 }
	runs, err := suite.Map(cfg, len(smartVs)+len(lyapScales), func(i int) (point, error) {
		opts := dpss.DefaultOptions()
		policy := dpss.PolicySmartDPSS
		if i < len(smartVs) {
			opts.V = smartVs[i]
		} else {
			policy = dpss.PolicyLyapunov
			opts.LyapunovV = lyapScales[i-len(smartVs)] * defV
		}
		rep, err := simulate(policy, opts, traces)
		if err != nil {
			return point{}, err
		}
		return point{cost: rep.TimeAvgCostUSD, delay: rep.MeanDelaySlots}, nil
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: "TUNE-3 — SmartDPSS vs Lyapunov battery baseline: cost frontier",
		Note: "base trace; SmartDPSS sweeps its Lyapunov tradeoff V, the battery baseline\n" +
			"sweeps its V as a multiple of the scale-aware default; tuned rows from TUNE-1's search.",
		Columns: []string{"policy", "parameter", "cost $/slot", "mean delay (slots)"},
	}
	for i, v := range smartVs {
		t.AddRow("smartdpss", fmt.Sprintf("V=%.1f", v),
			fmtUSD(runs[i].cost), fmtF(runs[i].delay))
	}
	for i, s := range lyapScales {
		p := runs[len(smartVs)+i]
		t.AddRow("lyapunov", fmt.Sprintf("vscale=%.1f", s), fmtUSD(p.cost), fmtF(p.delay))
	}
	for _, policy := range []dpss.Policy{dpss.PolicySmartDPSS, dpss.PolicyLyapunov} {
		res, err := RunTune(TuneOptions{
			Policy: policy, Base: dpss.DefaultOptions(), Suite: cfg, Seed: 1,
		})
		if err != nil {
			return nil, err
		}
		rep, err := simulate(policy, res.Options, traces)
		if err != nil {
			return nil, err
		}
		t.AddRow(string(policy), "tuned: "+res.ParamString(),
			fmtUSD(rep.TimeAvgCostUSD), fmtF(rep.MeanDelaySlots))
	}
	return t, nil
}
