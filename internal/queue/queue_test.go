package queue

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBacklogFIFOAndDelay(t *testing.T) {
	q := NewBacklog()
	q.Arrive(0, 2)
	q.Arrive(1, 3)
	if q.Len() != 5 {
		t.Fatalf("Len = %g, want 5", q.Len())
	}

	served := q.Serve(4, 2.5) // serves all of cohort 0 (delay 4) and 0.5 of cohort 1 (delay 3)
	if served != 2.5 {
		t.Fatalf("served = %g, want 2.5", served)
	}
	if math.Abs(q.Len()-2.5) > 1e-12 {
		t.Fatalf("Len = %g, want 2.5", q.Len())
	}
	wantMean := (2*4.0 + 0.5*3.0) / 2.5
	if math.Abs(q.MeanDelay()-wantMean) > 1e-12 {
		t.Errorf("MeanDelay = %g, want %g", q.MeanDelay(), wantMean)
	}
	if q.MaxDelay() != 4 {
		t.Errorf("MaxDelay = %d, want 4", q.MaxDelay())
	}

	// Drain the rest at slot 10: cohort 1 delay 9.
	q.Serve(10, 100)
	if q.Len() != 0 {
		t.Fatalf("Len = %g after drain, want 0", q.Len())
	}
	if q.MaxDelay() != 9 {
		t.Errorf("MaxDelay = %d, want 9", q.MaxDelay())
	}
	if q.ServedTotal() != 5 {
		t.Errorf("ServedTotal = %g, want 5", q.ServedTotal())
	}
}

func TestBacklogIgnoresNonPositive(t *testing.T) {
	q := NewBacklog()
	q.Arrive(0, 0)
	q.Arrive(0, -1)
	if q.Len() != 0 {
		t.Fatalf("Len = %g, want 0", q.Len())
	}
	if got := q.Serve(1, -2); got != 0 {
		t.Fatalf("Serve negative = %g, want 0", got)
	}
}

func TestBacklogServeEmpty(t *testing.T) {
	q := NewBacklog()
	if got := q.Serve(0, 5); got != 0 {
		t.Fatalf("Serve on empty = %g, want 0", got)
	}
	if q.MeanDelay() != 0 {
		t.Errorf("MeanDelay on empty = %g, want 0", q.MeanDelay())
	}
}

func TestBacklogClampedDelay(t *testing.T) {
	q := NewBacklog()
	q.Arrive(10, 1)
	q.Serve(5, 1) // serving "before" arrival clamps delay at 0
	if q.MaxDelay() != 0 {
		t.Errorf("MaxDelay = %d, want 0", q.MaxDelay())
	}
}

// TestPropertyBacklogConservation: arrivals = served + remaining.
func TestPropertyBacklogConservation(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	f := func() bool {
		q := NewBacklog()
		arrived := 0.0
		for slot := 0; slot < 100; slot++ {
			a := r.Float64()
			q.Arrive(slot, a)
			arrived += a
			q.Serve(slot, r.Float64()*1.5)
		}
		return math.Abs(arrived-(q.ServedTotal()+q.Len())) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyBacklogMatchesEq2: the aggregate queue follows
// Q(τ+1) = max(Q(τ) − sdt, 0) + ddt when served before arrivals.
func TestPropertyBacklogMatchesEq2(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	f := func() bool {
		q := NewBacklog()
		qRef := 0.0
		for slot := 0; slot < 200; slot++ {
			sdt := r.Float64()
			ddt := r.Float64() * 0.8
			// Our Serve caps at the backlog, which equals max(Q-sdt, 0).
			q.Serve(slot, sdt)
			q.Arrive(slot, ddt)
			qRef = math.Max(qRef-sdt, 0) + ddt
			if math.Abs(q.Len()-qRef) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDelayQueue(t *testing.T) {
	d, err := NewDelay(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if d.Epsilon() != 0.5 {
		t.Errorf("Epsilon = %g", d.Epsilon())
	}
	d.Update(0, true) // Y = 0.5
	d.Update(0, true) // Y = 1.0
	if d.Value() != 1.0 {
		t.Fatalf("Y = %g, want 1.0", d.Value())
	}
	d.Update(0.7, true) // Y = 1.0 - 0.7 + 0.5 = 0.8
	if math.Abs(d.Value()-0.8) > 1e-12 {
		t.Fatalf("Y = %g, want 0.8", d.Value())
	}
	d.Update(5, false) // floors at 0
	if d.Value() != 0 {
		t.Fatalf("Y = %g, want 0", d.Value())
	}
	d.Update(0, false) // no backlog: no growth
	if d.Value() != 0 {
		t.Fatalf("Y = %g, want 0 (no backlog)", d.Value())
	}
}

func TestNewDelayRejectsNonPositiveEpsilon(t *testing.T) {
	if _, err := NewDelay(0); err == nil {
		t.Error("epsilon 0 accepted")
	}
	if _, err := NewDelay(-1); err == nil {
		t.Error("negative epsilon accepted")
	}
}

// TestPropertyDelayQueueGrowthBound: Y grows by at most ε per slot and
// never goes negative (the ε-persistence property behind Lemma 2).
func TestPropertyDelayQueueGrowthBound(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	f := func() bool {
		d, err := NewDelay(0.5)
		if err != nil {
			return false
		}
		prev := 0.0
		for i := 0; i < 300; i++ {
			d.Update(r.Float64(), r.Intn(2) == 0)
			if d.Value() < 0 || d.Value() > prev+0.5+1e-12 {
				return false
			}
			prev = d.Value()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
