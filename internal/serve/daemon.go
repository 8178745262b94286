package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/smartdpss/smartdpss/internal/engine"
)

// Config parameterizes a Daemon.
type Config struct {
	// Session is the resumable controller session the daemon drives.
	Session *engine.Session
	// Source feeds one observation per fine slot.
	Source Source
	// CheckpointPath, when non-empty, enables crash recovery: the daemon
	// restores from this file at construction if it exists, rewrites it
	// atomically every CheckpointEvery slots, and writes a final
	// checkpoint on shutdown unless the file already holds that slot.
	CheckpointPath string
	// CheckpointEvery is the number of committed slots between periodic
	// checkpoint writes (default 24 — once per simulated day at hourly
	// slots).
	CheckpointEvery int
	// Interval paces the ingest loop in wall-clock time between slots;
	// zero free-runs (replay and tests). Live adapters usually pace
	// themselves by blocking in Next instead.
	Interval time.Duration
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

// Daemon is the long-lived service harness: it pulls observations from
// its Source, steps the session, checkpoints to disk, and serves the
// monitoring endpoints. Run drives the loop; Handler is safe to serve
// concurrently with it.
type Daemon struct {
	cfg Config

	mu          sync.Mutex
	sess        *engine.Session
	checkpoints uint64 // checkpoint files written
	resumed     bool   // whether New restored from an existing checkpoint
	saved       int    // slot the checkpoint file holds, -1 before one exists
}

// New validates cfg and builds the daemon. If cfg.CheckpointPath names
// an existing file, the session is restored from it and the source is
// repositioned to the session's next slot, so a restarted daemon resumes
// bit-for-bit where the previous process stopped.
func New(cfg Config) (*Daemon, error) {
	if cfg.Session == nil {
		return nil, errors.New("serve: nil session")
	}
	if cfg.Source == nil {
		return nil, errors.New("serve: nil source")
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 24
	}
	d := &Daemon{cfg: cfg, sess: cfg.Session, saved: -1}
	if cfg.CheckpointPath != "" {
		data, err := os.ReadFile(cfg.CheckpointPath)
		switch {
		case errors.Is(err, os.ErrNotExist):
			// Fresh start; the first periodic write creates the file.
		case err != nil:
			return nil, fmt.Errorf("serve: read checkpoint: %w", err)
		default:
			if err := d.sess.Restore(data); err != nil {
				return nil, fmt.Errorf("serve: restore checkpoint %s: %w", cfg.CheckpointPath, err)
			}
			if err := cfg.Source.Seek(d.sess.Slot()); err != nil {
				return nil, err
			}
			d.resumed = true
			d.saved = d.sess.Slot()
			d.logf("resumed from %s at slot %d/%d",
				cfg.CheckpointPath, d.sess.Slot(), d.sess.Horizon())
		}
	}
	return d, nil
}

// Resumed reports whether New restored the session from an existing
// checkpoint file.
func (d *Daemon) Resumed() bool { return d.resumed }

// Session returns the driven session (the daemon's monitoring endpoints
// read it under the daemon's lock; external readers must not race Run).
func (d *Daemon) Session() *engine.Session { return d.sess }

// Checkpoints returns the number of checkpoint files written so far.
func (d *Daemon) Checkpoints() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.checkpoints
}

func (d *Daemon) logf(format string, args ...any) {
	if d.cfg.Logf != nil {
		d.cfg.Logf(format, args...)
	}
}

// Run executes the ingest loop until the source drains (io.EOF), the
// session's horizon is exhausted, or ctx is cancelled — SIGTERM handling
// belongs to the caller, which cancels ctx. On every exit path with
// checkpointing enabled, the daemon leaves the last committed slot in
// the checkpoint file — writing it at shutdown unless the last periodic
// write already holds it — so the next process resumes exactly where
// this one stopped. A failed final write is Run's error unless the loop
// already failed.
func (d *Daemon) Run(ctx context.Context) error {
	for !d.sess.Done() {
		if d.cfg.Interval > 0 {
			select {
			case <-ctx.Done():
				return d.shutdown(ctx.Err())
			case <-time.After(d.cfg.Interval):
			}
		} else if err := ctx.Err(); err != nil {
			return d.shutdown(err)
		}

		obs, err := d.cfg.Source.Next(ctx)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return d.shutdown(err)
		}
		if obs.Slot != d.sess.Slot() {
			return d.shutdown(fmt.Errorf(
				"serve: source produced slot %d, session expects %d", obs.Slot, d.sess.Slot()))
		}

		d.mu.Lock()
		_, err = d.sess.Step(obs.Input)
		if err == nil {
			_, err = d.sess.Commit()
		}
		slot := d.sess.Slot()
		d.mu.Unlock()
		if err != nil {
			return d.shutdown(err)
		}

		if d.cfg.CheckpointPath != "" && slot%d.cfg.CheckpointEvery == 0 {
			if err := d.writeCheckpoint(); err != nil {
				return err
			}
		}
	}
	return d.shutdown(nil)
}

// shutdown writes the final checkpoint (when enabled and the file does
// not already hold the current slot) and folds any checkpoint failure
// into the loop's own exit error.
func (d *Daemon) shutdown(cause error) error {
	if d.cfg.CheckpointPath != "" && d.saved != d.sess.Slot() {
		if err := d.writeCheckpoint(); err != nil && cause == nil {
			cause = err
		}
	}
	return cause
}

// writeCheckpoint snapshots the session and replaces the checkpoint file
// atomically (write to a temp file in the same directory, fsync, rename)
// so a crash mid-write never corrupts the recovery point.
func (d *Daemon) writeCheckpoint() error {
	d.mu.Lock()
	data, err := d.sess.Snapshot()
	slot := d.sess.Slot()
	d.mu.Unlock()
	if err != nil {
		return fmt.Errorf("serve: snapshot: %w", err)
	}
	dir := filepath.Dir(d.cfg.CheckpointPath)
	tmp, err := os.CreateTemp(dir, ".checkpoint-*")
	if err != nil {
		return fmt.Errorf("serve: checkpoint temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("serve: write checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("serve: sync checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("serve: close checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), d.cfg.CheckpointPath); err != nil {
		return fmt.Errorf("serve: publish checkpoint: %w", err)
	}
	d.saved = slot
	d.mu.Lock()
	d.checkpoints++
	n := d.checkpoints
	d.mu.Unlock()
	d.logf("checkpoint %d written at slot %d", n, slot)
	return nil
}
