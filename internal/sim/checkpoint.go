package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"github.com/smartdpss/smartdpss/internal/battery"
	"github.com/smartdpss/smartdpss/internal/generator"
	"github.com/smartdpss/smartdpss/internal/jsonenc"
	"github.com/smartdpss/smartdpss/internal/market"
	"github.com/smartdpss/smartdpss/internal/queue"
)

// CheckpointVersion is the on-disk checkpoint format version. Restore
// rejects any other value with ErrSnapshotMismatch: a format change gets
// a new version, never a silent reinterpretation. Version 3 dropped
// version 2's slot length (every slot is an hour) and the battery's own
// op-cost ledger (Totals.BatteryOpUSD is the one bill).
const CheckpointVersion = 3

// Checkpoint is the JSON image of a session between two slots: every
// mutable component state, the session's running Totals as its report
// block (the Report itself is built only at Finish), and the
// controller's own blob. Configuration is NOT stored — it is pinned by
// ConfigHash, a digest of the session's Config, controller name,
// horizon and the caller's fingerprint. Restore therefore requires an
// identically configured session and fails with ErrSnapshotMismatch
// otherwise, instead of silently resuming one run's state under another
// run's physics.
//
// Snapshot writes a Checkpoint with an append encoder, field by field
// and without reflection; its bytes are pinned to the ones
// encoding/json's Marshal writes for the same struct (shortest
// round-trip floats), and Restore decodes them with encoding/json, so
// every float64 reads back to the identical bits and a restored session
// continues bit-for-bit.
type Checkpoint struct {
	Version    int    `json:"version"`
	ConfigHash string `json:"configHash"`
	Controller string `json:"controller"`

	Slot    int `json:"slot"`
	Horizon int `json:"horizon"`

	Battery battery.State      `json:"battery"`
	Market  market.State       `json:"market"`
	Backlog queue.BacklogState `json:"backlog"`
	Fleet   []generator.State  `json:"fleet,omitempty"`
	Report  Totals             `json:"report"`

	// ControllerState is the controller's Snapshotter blob
	// (policy-specific: virtual queues, trailing means, RNG position).
	ControllerState json.RawMessage `json:"controllerState,omitempty"`
}

// configHash digests everything that must match between the session that
// snapshots and the session that restores.
func configHash(cfg Config, controller string, horizon int, fingerprint string) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	// Config contains only exported scalar/struct/slice fields, so the
	// encode cannot fail; the encoder writes a trailing newline, which is
	// as good a field separator as any.
	_ = enc.Encode(struct {
		Fingerprint string
		Config      Config
		Controller  string
		Horizon     int
	}{fingerprint, cfg, controller, horizon})
	return hex.EncodeToString(h.Sum(nil))
}

// ConfigHash returns the session's configuration digest (the value a
// matching checkpoint carries). The digest is computed on first use and
// cached, so pure batch runs that never checkpoint skip the hashing —
// that keeps the hot path's allocation budget unchanged.
func (s *Session) ConfigHash() string {
	if s.hash == "" {
		fp := ""
		if s.fingerprint != nil {
			fp = s.fingerprint()
		}
		s.hash = configHash(s.cfg, s.ctrl.Name(), s.horizon, fp)
	}
	return s.hash
}

// Checkpoint captures the session's state as the Checkpoint value that
// Snapshot encodes. It fails like Snapshot. ControllerState aliases a
// session-owned buffer that the next Checkpoint or Snapshot overwrites.
func (s *Session) Checkpoint() (Checkpoint, error) {
	if s.finished {
		return Checkpoint{}, ErrSessionFinished
	}
	if s.pending {
		return Checkpoint{}, ErrPendingDecision
	}
	snap, ok := s.ctrl.(Snapshotter)
	if !ok {
		return Checkpoint{}, fmt.Errorf("%w: controller %q", ErrSnapshotUnsupported, s.ctrl.Name())
	}
	ctrlState, err := snap.AppendState(s.ctrlState[:0])
	if err != nil {
		return Checkpoint{}, fmt.Errorf("sim: controller snapshot: %w", err)
	}
	s.ctrlState = ctrlState
	return Checkpoint{
		Version:         CheckpointVersion,
		ConfigHash:      s.ConfigHash(),
		Controller:      s.ctrl.Name(),
		Slot:            s.slot,
		Horizon:         s.horizon,
		Battery:         s.batt.State(),
		Market:          s.acct.State(),
		Backlog:         s.backlog.State(),
		Fleet:           s.fleet.State(),
		Report:          s.tot,
		ControllerState: ctrlState,
	}, nil
}

// Snapshot captures the full simulation state as a self-describing JSON
// checkpoint. It is only valid between slots: with a Step pending Commit
// it fails with ErrPendingDecision, and after Finish with
// ErrSessionFinished. The controller must implement Snapshotter
// (ErrSnapshotUnsupported otherwise), and a non-finite float anywhere in
// the state fails the encode, as it fails json.Marshal.
func (s *Session) Snapshot() ([]byte, error) {
	cp, err := s.Checkpoint()
	if err != nil {
		return nil, err
	}
	// Checkpoints grow slowly (backlog cohorts), so the last
	// one's size plus a quarter fits the next in a single allocation.
	out, err := cp.appendJSON(make([]byte, 0, s.snapshotSize+s.snapshotSize/4+512))
	if err != nil {
		return nil, fmt.Errorf("sim: encode checkpoint: %w", err)
	}
	s.snapshotSize = len(out)
	return out, nil
}

// Restore reinstates a checkpoint onto this session, which must be
// configured identically to the one that produced it (same Config,
// controller, horizon and fingerprint — enforced through the embedded
// hash). The session may be fresh or mid-run; either way its entire
// state is overwritten and execution resumes bit-for-bit at the
// checkpoint's slot.
//
// Restore is all-or-nothing. Before it assigns anything it decodes the
// whole checkpoint and checks the format version, the config hash, the
// controller name and the horizon against the session's own, the slot
// against the session's horizon, the battery, market and fleet states
// against their configured bounds, and the controller's blob (which the
// controller decodes and checks in full before it applies any of it). A
// rejected checkpoint returns a decode error or one wrapping
// ErrSnapshotMismatch, and leaves the session exactly as it was.
func (s *Session) Restore(data []byte) error {
	if s.pending {
		return ErrPendingDecision
	}
	snap, ok := s.ctrl.(Snapshotter)
	if !ok {
		return fmt.Errorf("%w: controller %q", ErrSnapshotUnsupported, s.ctrl.Name())
	}
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return fmt.Errorf("sim: decode checkpoint: %w", err)
	}
	if err := s.checkCheckpoint(&cp); err != nil {
		return err
	}
	if err := snap.RestoreState(cp.ControllerState); err != nil {
		return fmt.Errorf("sim: restore controller: %w", err)
	}
	// checkCheckpoint accepted every component state, so none of these
	// restores fails and the session never holds a partial checkpoint.
	if err := s.batt.Restore(cp.Battery); err != nil {
		return fmt.Errorf("sim: restore battery: %w", err)
	}
	if err := s.acct.Restore(cp.Market); err != nil {
		return fmt.Errorf("sim: restore market: %w", err)
	}
	if err := s.fleet.Restore(cp.Fleet); err != nil {
		return fmt.Errorf("sim: restore fleet: %w", err)
	}
	s.backlog.Restore(cp.Backlog)
	s.tot = cp.Report
	s.slot = cp.Slot
	s.finished = false
	return nil
}

// checkCheckpoint rejects, with ErrSnapshotMismatch, a checkpoint whose
// identity or component states this session cannot take.
func (s *Session) checkCheckpoint(cp *Checkpoint) error {
	if cp.Version != CheckpointVersion {
		return fmt.Errorf("%w: checkpoint version %d, want %d",
			ErrSnapshotMismatch, cp.Version, CheckpointVersion)
	}
	if cp.ConfigHash != s.ConfigHash() {
		return fmt.Errorf("%w: config hash %.12s, session has %.12s",
			ErrSnapshotMismatch, cp.ConfigHash, s.ConfigHash())
	}
	if cp.Controller != s.ctrl.Name() {
		return fmt.Errorf("%w: checkpoint controller %q, session has %q",
			ErrSnapshotMismatch, cp.Controller, s.ctrl.Name())
	}
	if cp.Horizon != s.horizon {
		return fmt.Errorf("%w: checkpoint of %d slots, session has %d",
			ErrSnapshotMismatch, cp.Horizon, s.horizon)
	}
	if cp.Slot < 0 || cp.Slot > s.horizon {
		return fmt.Errorf("%w: checkpoint slot %d outside [0, %d]",
			ErrSnapshotMismatch, cp.Slot, s.horizon)
	}
	if err := s.batt.CheckState(cp.Battery); err != nil {
		return fmt.Errorf("%w: battery: %w", ErrSnapshotMismatch, err)
	}
	if err := s.acct.CheckState(cp.Market); err != nil {
		return fmt.Errorf("%w: market: %w", ErrSnapshotMismatch, err)
	}
	if err := s.fleet.CheckState(cp.Fleet); err != nil {
		return fmt.Errorf("%w: fleet: %w", ErrSnapshotMismatch, err)
	}
	return nil
}

// appendJSON appends cp as json.Marshal encodes it: fields in struct
// order, omitempty honoured.
func (cp *Checkpoint) appendJSON(dst []byte) ([]byte, error) {
	e := jsonenc.NewEncoder(dst)
	e.Open()
	e.Key("version").Int(cp.Version)
	e.Key("configHash").String(cp.ConfigHash)
	e.Key("controller").String(cp.Controller)
	e.Key("slot").Int(cp.Slot)
	e.Key("horizon").Int(cp.Horizon)

	b := &cp.Battery
	e.Key("battery").Open()
	e.Key("levelMWh").Float(b.LevelMWh)
	e.Key("ops").Int(b.Ops)
	e.Key("chargedMWh").Float(b.ChargedMWh)
	e.Key("dischargedMWh").Float(b.DischargedMWh)
	e.Close()

	m := &cp.Market
	e.Key("market").Open()
	e.Key("ltDuePerSlot").Float(m.LTDuePerSlot)
	e.Key("ltPrice").Float(m.LTPrice)
	e.Key("active").Bool(m.Active)
	e.Key("ltEnergyMWh").Float(m.LTEnergyMWh)
	e.Key("rtEnergyMWh").Float(m.RTEnergyMWh)
	e.Key("ltCostUSD").Float(m.LTCostUSD)
	e.Key("rtCostUSD").Float(m.RTCostUSD)
	e.Close()

	q := &cp.Backlog
	e.Key("backlog").Open()
	if len(q.Cohorts) > 0 {
		e.Key("cohorts").OpenArray()
		for _, c := range q.Cohorts {
			e.Open()
			e.Key("arrivalSlot").Int(c.ArrivalSlot)
			e.Key("remainingMWh").Float(c.RemainingMWh)
			e.Close()
		}
		e.CloseArray()
	}
	e.Key("totalMWh").Float(q.TotalMWh)
	e.Key("servedMWh").Float(q.ServedMWh)
	e.Key("delayWeighted").Float(q.DelayWeighted)
	e.Key("maxDelay").Int(q.MaxDelay)
	e.Close()

	if len(cp.Fleet) > 0 {
		e.Key("fleet").OpenArray()
		for i := range cp.Fleet {
			u := &cp.Fleet[i]
			e.Open()
			e.Key("running").Bool(u.Running)
			e.Key("countdown").Int(u.Countdown)
			e.Key("energyMWh").Float(u.EnergyMWh)
			e.Key("fuelUSD").Float(u.FuelUSD)
			e.Key("startupUSD").Float(u.StartupUSD)
			e.Key("co2Kg").Float(u.CO2Kg)
			e.Key("starts").Int(u.Starts)
			e.Key("opSlots").Int(u.OpSlots)
			e.Close()
		}
		e.CloseArray()
	}

	t := &cp.Report
	e.Key("report").Open()
	e.Key("totalCostUSD").Float(t.TotalCostUSD)
	e.Key("batteryOpUSD").Float(t.BatteryOpUSD)
	e.Key("wasteCostUSD").Float(t.WasteCostUSD)
	if t.GenFuelUSD != 0 {
		e.Key("genFuelUSD").Float(t.GenFuelUSD)
	}
	if t.GenStartupUSD != 0 {
		e.Key("genStartupUSD").Float(t.GenStartupUSD)
	}
	e.Key("emergencyCostUSD").Float(t.EmergencyCostUSD)
	e.Key("renewableMWh").Float(t.RenewableMWh)
	if t.GenEnergyMWh != 0 {
		e.Key("genEnergyMWh").Float(t.GenEnergyMWh)
	}
	e.Key("wasteMWh").Float(t.WasteMWh)
	e.Key("unservedMWh").Float(t.UnservedMWh)
	e.Key("servedDTMWh").Float(t.ServedDTMWh)
	if t.GenCO2Kg != 0 {
		e.Key("genCO2Kg").Float(t.GenCO2Kg)
	}
	e.Key("backlogMeanMWh").Float(t.BacklogMeanMWh)
	e.Key("backlogMaxMWh").Float(t.BacklogMaxMWh)
	e.Key("batteryMinMWh").Float(t.BatteryMinMWh)
	e.Key("batteryMaxMWh").Float(t.BatteryMaxMWh)
	e.Key("peakGridMW").Float(t.PeakGridMW)
	e.Key("nearPeakSlots").Int(t.NearPeakSlots)
	e.Key("unavailable").Int(t.Unavailable)
	e.Close()

	if len(cp.ControllerState) > 0 {
		e.Key("controllerState").Raw(cp.ControllerState)
	}
	e.Close()
	return e.Bytes()
}
