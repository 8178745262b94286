// Package queue implements the queueing substrate of SmartDPSS: the
// delay-tolerant demand backlog Q(τ) (Eq. 2) with FIFO cohort tracking for
// exact delay measurement, and the ε-persistent delay-aware virtual queue
// Y(τ) (Eq. 12).
//
// The package owns both queues' state and update rules; the backlog's
// cohort ring is the allocation-free compacting buffer the PR-4 hot path
// introduced. internal/sim owns a Backlog per run for arrivals, service
// and delay accounting; internal/core additionally drives the virtual
// queue Y that, with Q and the battery queue X(t) (an affine shift of the
// battery level, core.Params.XShift), steers the Lyapunov
// drift-plus-penalty weights.
package queue

import "errors"

// cohort is demand energy that arrived together in one slot.
type cohort struct {
	arrivalSlot int
	remaining   float64
}

// Backlog is the delay-tolerant demand queue Q(τ). Energy is served FIFO
// so that per-unit queueing delay can be measured exactly; the aggregate
// dynamics follow Eq. (2): Q(τ+1) = max(Q(τ) − sdt(τ), 0) + ddt(τ).
//
// Cohorts live in a compacting ring: Serve advances a head index instead
// of re-slicing, and Arrive reuses the drained prefix once the live
// window would otherwise force the backing array to grow. Steady-state
// simulation therefore enqueues without allocating, where the historical
// slice-shift version leaked capacity at the front and reallocated
// forever.
type Backlog struct {
	cohorts []cohort
	head    int // cohorts[:head] are fully served and reusable
	total   float64

	// lifetime delay statistics over served energy
	servedMWh     float64
	delayWeighted float64 // Σ served·delay (slot units)
	maxDelay      int
}

// NewBacklog returns an empty backlog queue.
func NewBacklog() *Backlog {
	return &Backlog{}
}

// Len returns the current backlog Q(τ) in MWh.
func (q *Backlog) Len() float64 { return q.total }

// Arrive enqueues amount MWh of delay-tolerant demand arriving at slot.
func (q *Backlog) Arrive(slot int, amount float64) {
	if amount <= 0 {
		return
	}
	if len(q.cohorts) == q.head {
		// Empty: rewind to the start of the backing array.
		q.cohorts = q.cohorts[:0]
		q.head = 0
	} else if q.head > 0 && len(q.cohorts) == cap(q.cohorts) {
		// Compact the live window over the drained prefix instead of
		// growing the backing array.
		n := copy(q.cohorts, q.cohorts[q.head:])
		q.cohorts = q.cohorts[:n]
		q.head = 0
	}
	q.cohorts = append(q.cohorts, cohort{arrivalSlot: slot, remaining: amount})
	q.total += amount
}

// Serve removes up to amount MWh from the queue FIFO at the given slot and
// returns the energy actually served. Delay statistics are updated per
// served cohort.
func (q *Backlog) Serve(slot int, amount float64) float64 {
	if amount <= 0 || q.total <= 0 {
		return 0
	}
	served := 0.0
	for q.head < len(q.cohorts) && amount > 1e-12 {
		c := &q.cohorts[q.head]
		take := min(c.remaining, amount)
		c.remaining -= take
		amount -= take
		served += take
		delay := slot - c.arrivalSlot
		if delay < 0 {
			delay = 0
		}
		q.servedMWh += take
		q.delayWeighted += take * float64(delay)
		if delay > q.maxDelay {
			q.maxDelay = delay
		}
		if c.remaining <= 1e-12 {
			q.head++
		}
	}
	q.total = max(0, q.total-served)
	return served
}

// CohortState is one live cohort in a backlog checkpoint.
type CohortState struct {
	ArrivalSlot  int     `json:"arrivalSlot"`
	RemainingMWh float64 `json:"remainingMWh"`
}

// BacklogState is the backlog's mutable state, exported for session
// checkpoints: the live FIFO window (drained cohorts are dropped — only
// the compaction position changes, never the served arithmetic) plus the
// running total and the lifetime delay statistics.
type BacklogState struct {
	Cohorts       []CohortState `json:"cohorts,omitempty"`
	TotalMWh      float64       `json:"totalMWh"`
	ServedMWh     float64       `json:"servedMWh"`
	DelayWeighted float64       `json:"delayWeighted"`
	MaxDelay      int           `json:"maxDelay"`
}

// State captures the backlog for a checkpoint.
func (q *Backlog) State() BacklogState {
	s := BacklogState{
		TotalMWh:      q.total,
		ServedMWh:     q.servedMWh,
		DelayWeighted: q.delayWeighted,
		MaxDelay:      q.maxDelay,
	}
	if live := q.cohorts[q.head:]; len(live) > 0 {
		s.Cohorts = make([]CohortState, len(live))
		for i, c := range live {
			s.Cohorts[i] = CohortState{ArrivalSlot: c.arrivalSlot, RemainingMWh: c.remaining}
		}
	}
	return s
}

// Restore overwrites the backlog from a checkpoint. The total is restored
// verbatim (it is maintained incrementally during a run, so recomputing
// it from the cohorts could differ by round-off and break bit-exact
// resumption).
func (q *Backlog) Restore(s BacklogState) {
	q.cohorts = q.cohorts[:0]
	q.head = 0
	for _, c := range s.Cohorts {
		q.cohorts = append(q.cohorts, cohort{arrivalSlot: c.ArrivalSlot, remaining: c.RemainingMWh})
	}
	q.total = s.TotalMWh
	q.servedMWh = s.ServedMWh
	q.delayWeighted = s.DelayWeighted
	q.maxDelay = s.MaxDelay
}

// ServedTotal returns the lifetime energy served from the queue in MWh.
func (q *Backlog) ServedTotal() float64 { return q.servedMWh }

// MeanDelay returns the served-energy-weighted mean queueing delay in
// slots, or 0 when nothing has been served.
func (q *Backlog) MeanDelay() float64 {
	if q.servedMWh == 0 {
		return 0
	}
	return q.delayWeighted / q.servedMWh
}

// MaxDelay returns the largest observed per-unit delay in slots.
func (q *Backlog) MaxDelay() int { return q.maxDelay }

// Delay is the ε-persistent delay-aware virtual queue Y(τ) of Eq. (12):
//
//	Y(τ+1) = max(Y(τ) − sdt(τ) + ε·1[Q(τ)>0], 0)
//
// Y grows whenever backlogged demand is left unserved, which (with Lemma 2)
// upper-bounds the worst-case delay by (Qmax + Ymax)/ε.
type Delay struct {
	epsilon float64
	value   float64
}

// NewDelay returns a delay queue with the given ε > 0.
func NewDelay(epsilon float64) (*Delay, error) {
	if epsilon <= 0 {
		return nil, errors.New("queue: epsilon must be positive")
	}
	return &Delay{epsilon: epsilon}, nil
}

// Epsilon returns ε.
func (d *Delay) Epsilon() float64 { return d.epsilon }

// Value returns Y(τ).
func (d *Delay) Value() float64 { return d.value }

// Restore overwrites Y(τ) from a checkpoint (negative values clamp to 0,
// the queue's own floor).
func (d *Delay) Restore(value float64) {
	d.value = max(0, value)
}

// Update advances Y given the energy served this slot and whether the
// backlog was non-empty at the start of the slot.
func (d *Delay) Update(served float64, backlogPositive bool) {
	inc := 0.0
	if backlogPositive {
		inc = d.epsilon
	}
	d.value = max(0, d.value-served+inc)
}
