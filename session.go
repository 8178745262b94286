package smartdpss

import (
	"github.com/smartdpss/smartdpss/internal/engine"
)

// Sentinel errors of the session API. Branch on them with errors.Is;
// field-level validation failures additionally match a *ValidationError
// via errors.As.
var (
	// ErrInvalidOptions marks every Options validation failure.
	ErrInvalidOptions = engine.ErrInvalidOptions
	// ErrHorizonExhausted reports a Step past the session's last slot.
	ErrHorizonExhausted = engine.ErrHorizonExhausted
	// ErrSnapshotMismatch reports a Restore from a checkpoint taken under
	// a different configuration (options, policy, horizon, slot length or
	// checkpoint-format version).
	ErrSnapshotMismatch = engine.ErrSnapshotMismatch
	// ErrSnapshotUnsupported reports Snapshot/Restore on a policy that
	// cannot be checkpointed (the clairvoyant offline benchmarks).
	ErrSnapshotUnsupported = engine.ErrSnapshotUnsupported
)

// ValidationError reports one invalid field of an option or input
// struct, with the field name machine-readable (match via errors.As).
type ValidationError = engine.ValidationError

// SlotInput is one fine slot's exogenous inputs for streaming sessions:
// both demand classes, renewable production, the two market prices and
// the fuel-price multiplier (pass FuelScale 1 without a fuel market).
type SlotInput = engine.SlotInput

// Decision is a controller's planned fine-slot action: real-time
// purchase, backlog service, battery charge/discharge and on-site
// generation dispatch.
type Decision = engine.Decision

// SlotOutcome is one committed slot: the outcome fed back to the
// controller, the decision actually executed after the physical rescue
// chain, and the slot's cost.
type SlotOutcome = engine.SlotOutcome

// SessionStatus is a live mid-run view of a session — running cost and
// energy totals plus the current physical state — for monitoring
// surfaces such as the dpss-serve /metrics endpoint.
type SessionStatus = engine.SessionStatus

// Session is a resumable step-wise simulation of one policy: the
// streaming counterpart of Simulate, which is itself a thin batch loop
// over a replay session (batch and streaming reports are byte-identical
// by construction). Each slot is Step(input) → Decision, then Commit()
// → SlotOutcome; Finish() returns the Report. Between slots the full
// state can be checkpointed with Snapshot and reinstated with Restore
// on an identically configured session — in this process or another
// one — and the resumed run continues bit-for-bit.
type Session = engine.Session

// NewSession builds a streaming session over horizon fine slots: the
// caller supplies every slot's inputs through Step, so live telemetry
// can drive the controller online. Only trace-free policies qualify
// (PolicySmartDPSS, PolicyImpatient, PolicyLyapunov) — the clairvoyant
// benchmarks need the full future and go through NewReplaySession.
func NewSession(policy Policy, opts Options, horizon int) (*Session, error) {
	return engine.NewSession(policy, opts, horizon)
}

// NewReplaySession builds a session bound to a trace set: StepReplay
// feeds the next trace row each slot, exactly as batch Simulate does.
// All policies qualify.
func NewReplaySession(policy Policy, opts Options, traces *Traces) (*Session, error) {
	return engine.NewReplaySession(policy, opts, traces)
}
