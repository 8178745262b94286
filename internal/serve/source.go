// Package serve hosts the long-lived service layer of SmartDPSS: an
// ingest loop that drives a resumable engine.Session one slot at a time
// from a pluggable telemetry source, periodic on-disk checkpoints for
// crash recovery, and an HTTP surface exposing OpenMetrics text on
// /metrics plus JSON status. The daemon steps the exact same session
// machinery as batch Simulate, so a served run's report is byte-identical
// to the batch run over the same inputs.
package serve

import (
	"context"
	"fmt"
	"io"

	"github.com/smartdpss/smartdpss/internal/engine"
)

// Observation is one fine slot's worth of telemetry: the slot index it
// belongs to and the exogenous inputs the controller plans against.
type Observation struct {
	Slot  int              `json:"slot"`
	Input engine.SlotInput `json:"input"`
}

// Source supplies slot observations to the daemon's ingest loop. A
// replay source reads generated traces (below); live deployments plug in
// adapters that poll building telemetry (MQTT, SNMP, …) and block in
// Next until the next slot's data is complete.
//
// Next returns io.EOF when the source is drained; the daemon then stops
// cleanly. Seek repositions the source after a checkpoint restore so it
// resumes at the session's next slot.
type Source interface {
	Next(ctx context.Context) (Observation, error)
	Seek(slot int) error
}

// ReplaySource replays a generated trace set slot by slot — the ingest
// adapter used by tests, the smoke target and `dpss-serve` without live
// telemetry. It is not safe for concurrent use; the daemon calls it from
// a single goroutine.
type ReplaySource struct {
	traces *engine.Traces
	next   int
}

var _ Source = (*ReplaySource)(nil)

// NewReplaySource wraps traces as a Source starting at slot 0.
func NewReplaySource(traces *engine.Traces) (*ReplaySource, error) {
	if traces == nil {
		return nil, fmt.Errorf("serve: nil traces")
	}
	return &ReplaySource{traces: traces}, nil
}

// Next implements Source: it returns the next trace row, or io.EOF once
// the horizon is exhausted.
func (r *ReplaySource) Next(ctx context.Context) (Observation, error) {
	if err := ctx.Err(); err != nil {
		return Observation{}, err
	}
	if r.next >= r.traces.Horizon() {
		return Observation{}, io.EOF
	}
	obs := Observation{Slot: r.next, Input: r.traces.InputAt(r.next)}
	r.next++
	return obs, nil
}

// Seek implements Source.
func (r *ReplaySource) Seek(slot int) error {
	if slot < 0 || slot > r.traces.Horizon() {
		return fmt.Errorf("serve: seek slot %d outside horizon %d", slot, r.traces.Horizon())
	}
	r.next = slot
	return nil
}
