package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"github.com/smartdpss/smartdpss/internal/sim"
)

// Sentinel errors of the public session API, re-exported by the root
// package. The sim-layer sentinels pass through engine calls unchanged,
// so callers can branch on any of them with errors.Is.
var (
	// ErrInvalidOptions marks every Options/TraceConfig validation
	// failure. The concrete message keeps its historical text; wrapping
	// makes it machine-checkable: errors.Is(err, ErrInvalidOptions).
	ErrInvalidOptions = errors.New("smartdpss: invalid options")

	// ErrHorizonExhausted aliases the sim sentinel: Step past the last
	// slot of the session's horizon.
	ErrHorizonExhausted = sim.ErrHorizonExhausted

	// ErrSnapshotMismatch aliases the sim sentinel: a checkpoint from a
	// differently-configured session (options, policy, horizon or
	// checkpoint version).
	ErrSnapshotMismatch = sim.ErrSnapshotMismatch

	// ErrSnapshotUnsupported aliases the sim sentinel: the policy cannot
	// be checkpointed (the offline benchmarks precompute their plans).
	ErrSnapshotUnsupported = sim.ErrSnapshotUnsupported
)

// invalidOptionsError attaches the ErrInvalidOptions identity to a
// validation failure without changing its message text.
type invalidOptionsError struct{ err error }

func (e *invalidOptionsError) Error() string { return e.err.Error() }
func (e *invalidOptionsError) Unwrap() error { return e.err }
func (e *invalidOptionsError) Is(target error) bool {
	return target == ErrInvalidOptions
}

// invalidOptions wraps err so errors.Is(err, ErrInvalidOptions) holds;
// the original error stays reachable through Unwrap (and errors.As for
// field-level sim.ValidationError values).
func invalidOptions(err error) error {
	if err == nil {
		return nil
	}
	return &invalidOptionsError{err: err}
}

// ValidationError reports one invalid field of an option or input
// struct, with the field name machine-readable (match via errors.As).
type ValidationError = sim.ValidationError

// SlotInput is one fine slot's exogenous inputs for streaming sessions:
// demands, renewable production and both market prices. Fuel is priced
// by each generation unit's configured curve, not by the input.
type SlotInput = sim.SlotInput

// Decision is a controller's planned fine-slot action.
type Decision = sim.Decision

// SlotOutcome is one committed slot: outcome, executed decision, cost.
type SlotOutcome = sim.SlotOutcome

// SessionStatus is a live mid-run view of a session for monitoring.
type SessionStatus = sim.Status

// Session is a resumable step-wise simulation of one policy: the
// streaming counterpart of Simulate. Each slot is Step(input) →
// Decision, then Commit() → SlotOutcome; Finish() returns the Report.
// Between slots the full state — controller, battery, fleet, market
// account, backlog, running totals — can be checkpointed with
// Snapshot and reinstated with Restore on an identically configured
// session, in this process or another one; the resumed run is
// byte-identical to an uninterrupted one.
type Session struct {
	inner  *sim.Session
	policy Policy
	opts   Options
	traces *Traces // replay source; nil for pure streaming sessions
}

// optionsFingerprint digests the policy and the full Options so two
// sessions share checkpoints only when every tuning knob matches. Some
// options (V, Epsilon, noise parameters, …) configure the controller
// rather than the sim.Config, so the sim layer alone could not tell the
// configurations apart.
func optionsFingerprint(policy Policy, opts Options) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	_ = enc.Encode(struct {
		Policy  Policy
		Options Options
	}{policy, opts})
	return hex.EncodeToString(h.Sum(nil))
}

// validateSimulateOptions is the shared option screen of Simulate and
// the session constructors. It rejects every non-finite float field
// before any layer sees it: each later range check compares, and every
// comparison is false for NaN. Finite values that overflow once scaled
// (PeakMW = 1e308 doubles to Smax = +Inf) fail the plant's validation.
func validateSimulateOptions(opts Options) error {
	fields := [...]struct {
		name string
		v    float64
	}{
		{"V", opts.V},
		{"Epsilon", opts.Epsilon},
		{"PeakMW", opts.PeakMW},
		{"BatteryMinutes", opts.BatteryMinutes},
		{"BatteryMinMinutes", opts.BatteryMinMinutes},
		{"BatteryReferenceMW", opts.BatteryReferenceMW},
		{"PmaxUSD", opts.PmaxUSD},
		{"PeakChargeUSDPerMW", opts.PeakChargeUSDPerMW},
		{"LyapunovV", opts.LyapunovV},
		{"LyapunovTheta", opts.LyapunovTheta},
		{"CarbonUSDPerTon", opts.CarbonUSDPerTon},
		{"ObservationNoise", opts.ObservationNoise},
	}
	for _, f := range fields {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return invalidOptions(fmt.Errorf("smartdpss: %s is not finite", f.name))
		}
	}
	if opts.CarbonUSDPerTon < 0 {
		return invalidOptions(errors.New("smartdpss: CarbonUSDPerTon must be finite and non-negative"))
	}
	for i, u := range opts.Fleet {
		if err := u.Validate(); err != nil {
			return invalidOptions(fmt.Errorf("smartdpss: fleet unit %d: %w", i, err))
		}
	}
	return nil
}

// newSession builds the session core shared by both constructors.
func newSession(policy Policy, opts Options, traces *Traces, horizon int) (*Session, error) {
	if err := validateSimulateOptions(opts); err != nil {
		return nil, err
	}
	ctrl, err := newController(policy, opts, traces)
	if err != nil {
		return nil, invalidOptions(err)
	}
	if opts.ObservationNoise > 0 {
		ctrl, err = sim.WithObservationNoise(ctrl, opts.NoiseSeed, opts.ObservationNoise)
		if err != nil {
			return nil, invalidOptions(err)
		}
	}
	cfg := opts.simConfig()
	if err := cfg.Validate(); err != nil {
		return nil, invalidOptions(err)
	}
	// The fingerprint thunk defers the sha256-over-JSON digest to the
	// first Snapshot/Restore, keeping batch Simulate's allocation budget
	// free of checkpoint machinery it never uses.
	inner, err := sim.NewSession(cfg, ctrl, horizon, func() string {
		return optionsFingerprint(policy, opts)
	})
	if err != nil {
		return nil, invalidOptions(err)
	}
	return &Session{inner: inner, policy: policy, opts: opts, traces: traces}, nil
}

// NewSession builds a streaming session over horizon fine slots: the
// caller supplies every slot's inputs through Step. Only trace-free
// policies qualify — the offline benchmarks need the full future and
// must go through NewReplaySession.
func NewSession(policy Policy, opts Options, horizon int) (*Session, error) {
	switch policy {
	case PolicySmartDPSS, PolicyImpatient, PolicyLyapunov:
	default:
		return nil, invalidOptions(fmt.Errorf(
			"smartdpss: policy %q needs traces; use NewReplaySession", policy))
	}
	if horizon <= 0 {
		return nil, invalidOptions(errors.New("smartdpss: horizon must be positive"))
	}
	return newSession(policy, opts, nil, horizon)
}

// NewReplaySession builds a session bound to a trace set: StepReplay
// feeds the next trace row each slot, which is exactly what batch
// Simulate does. All policies qualify, including the clairvoyant
// offline benchmarks (which read the traces at construction). The
// traces are validated here unless they still carry the record that
// they passed validation unchanged (see Traces), so sweeps over
// generated or cached traces validate each set once.
func NewReplaySession(policy Policy, opts Options, traces *Traces) (*Session, error) {
	if traces == nil {
		return nil, errors.New("smartdpss: nil traces")
	}
	if !traces.valid {
		if err := traces.set.Validate(); err != nil {
			return nil, err
		}
	}
	return newSession(policy, opts, traces, traces.set.Horizon())
}

// InputAt reads slot's row of the traces as a session input — the
// bridge replay sources and batch Simulate share.
func (t *Traces) InputAt(slot int) SlotInput { return sim.InputAt(t.set, slot) }

// Policy returns the session's policy.
func (s *Session) Policy() Policy { return s.policy }

// Slot returns the index of the next slot to Step (the number of
// committed slots).
func (s *Session) Slot() int { return s.inner.Slot() }

// Horizon returns the total number of fine slots.
func (s *Session) Horizon() int { return s.inner.Horizon() }

// Done reports whether every slot of the horizon has been committed.
func (s *Session) Done() bool { return s.inner.Slot() >= s.inner.Horizon() }

// Pending reports whether a planned decision awaits Commit.
func (s *Session) Pending() bool { return s.inner.Pending() }

// ControllerName returns the policy's report name.
func (s *Session) ControllerName() string { return s.inner.ControllerName() }

// LPFailures returns 0: no streaming policy solves an LP.
//
// Deprecated: it stays only because the end-to-end benchmark in bench/
// (bench/stream.go) still reads it; it goes with that read.
func (s *Session) LPFailures() int { return 0 }

// Status returns the live mid-run view (running cost/energy totals and
// physical state) for monitoring surfaces.
func (s *Session) Status() SessionStatus { return s.inner.Status() }

// Step plans the next slot from the given inputs and returns the
// controller's validated decision. Commit executes it. An input the slot
// model cannot execute (non-finite, negative demand or renewable output,
// a price outside [0, PmaxUSD]) fails with a *ValidationError before the
// session changes.
func (s *Session) Step(in SlotInput) (Decision, error) { return s.inner.Step(in) }

// Commit executes the pending decision and advances to the next slot.
func (s *Session) Commit() (SlotOutcome, error) { return s.inner.Commit() }

// StepReplay plans and commits the next slot from the bound traces (the
// batch path; only valid on replay sessions).
func (s *Session) StepReplay() (SlotOutcome, error) {
	o, err := s.replay()
	if err != nil {
		return SlotOutcome{}, err
	}
	return *o, nil
}

// ReplaySlot is StepReplay for replay loops that read the outcome in
// place: it returns the session's own record of the committed slot,
// valid until the session's next slot, instead of a copy. It is a
// function, not a method, so that the root package, which aliases
// Session, does not export it; geo's per-site loop steps through it.
func ReplaySlot(s *Session) (*SlotOutcome, error) { return s.replay() }

// replay plans the next slot from the bound traces, discarding no
// returned decision, and executes it in place.
func (s *Session) replay() (*SlotOutcome, error) {
	if s.traces == nil {
		return nil, errors.New("smartdpss: streaming session has no traces; use Step")
	}
	in := sim.InputAt(s.traces.set, s.inner.Slot())
	if err := s.inner.Plan(&in); err != nil {
		return nil, err
	}
	return s.inner.Execute()
}

// Finish finalizes the session and returns its report. A session may
// finish before its horizon is exhausted; the report covers the
// committed slots.
func (s *Session) Finish() (*Report, error) { return s.inner.Finish() }

// Snapshot captures the full session state as a self-describing JSON
// checkpoint (see sim.Checkpoint for the format), written without
// reflection in the bytes encoding/json would write. Valid only between
// slots; the policy must support snapshots (ErrSnapshotUnsupported
// otherwise — the offline benchmarks do not).
func (s *Session) Snapshot() ([]byte, error) { return s.inner.Snapshot() }

// Restore reinstates a checkpoint onto this session. The session must be
// configured identically to the snapshotting one — same policy, options
// and horizon, enforced via the embedded configuration hash and the
// checkpoint's own horizon field (ErrSnapshotMismatch otherwise).
// Execution resumes bit-for-bit at the checkpoint's slot. Restore is
// all-or-nothing: every component state and the controller's blob are
// decoded and checked before any is applied, so a rejected checkpoint
// (a decode error, or one wrapping ErrSnapshotMismatch) leaves the
// session exactly as it was.
func (s *Session) Restore(data []byte) error { return s.inner.Restore(data) }
