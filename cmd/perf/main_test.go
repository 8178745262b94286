package main

import (
	"strings"
	"testing"
)

// passingRun returns measurements that satisfy every zero-allocation,
// speedup and wall-clock gate.
func passingRun() map[string]Result {
	fresh := make(map[string]Result)
	for _, name := range zeroAllocGates {
		fresh[name] = Result{NsPerOp: 100}
	}
	for _, g := range speedupGates {
		fresh[g.fast] = Result{NsPerOp: 10}
		fresh[g.slow] = Result{NsPerOp: 100}
	}
	for name, budget := range wallGates {
		fresh[name] = Result{NsPerOp: budget / 2}
	}
	return fresh
}

// TestGateSpeedups covers every ratio gate: a passing run, a ratio at
// the limit, each side missing, and a breach, which must name the gate's
// own reason.
func TestGateSpeedups(t *testing.T) {
	if len(speedupGates) < 2 {
		t.Fatal("want the staircase and the seeding speedup gates")
	}
	cases := []struct {
		name    string
		edit    func(map[string]Result, speedupGate)
		wantErr func(speedupGate) string // empty: the gate passes
	}{
		{"pass", func(map[string]Result, speedupGate) {}, func(speedupGate) string { return "" }},
		{"at the limit", func(m map[string]Result, g speedupGate) {
			m[g.fast] = Result{NsPerOp: m[g.slow].NsPerOp * g.maxRatio}
		}, func(speedupGate) string { return "" }},
		{"missing fast side", func(m map[string]Result, g speedupGate) { delete(m, g.fast) },
			func(g speedupGate) string { return g.fast + " missing" }},
		{"missing slow side", func(m map[string]Result, g speedupGate) { delete(m, g.slow) },
			func(g speedupGate) string { return g.slow + " missing" }},
		{"ratio breach", func(m map[string]Result, g speedupGate) {
			m[g.fast] = Result{NsPerOp: m[g.slow].NsPerOp * (g.maxRatio + 0.01)}
		}, func(g speedupGate) string { return g.reason }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, g := range speedupGates {
				fresh := passingRun()
				tc.edit(fresh, g)
				err := gateSpeedups(fresh)
				want := tc.wantErr(g)
				switch {
				case want == "" && err != nil:
					t.Fatalf("%s: gate failed on a passing run: %v", g.fast, err)
				case want != "" && err == nil:
					t.Fatalf("%s: gate passed, want an error containing %q", g.fast, want)
				case want != "" && !strings.Contains(err.Error(), want):
					t.Fatalf("%s: error %q does not contain %q", g.fast, err, want)
				}
			}
		})
	}
	// Each gate words its own failure.
	reasons := make(map[string]bool)
	for _, g := range speedupGates {
		if g.reason == "" || reasons[g.reason] {
			t.Errorf("gate %s/%s needs a reason of its own, has %q", g.fast, g.slow, g.reason)
		}
		reasons[g.reason] = true
	}
}

func TestGateWall(t *testing.T) {
	for name, budget := range wallGates {
		if err := gateWall(passingRun()); err != nil {
			t.Fatalf("gate failed on a passing run: %v", err)
		}

		missing := passingRun()
		delete(missing, name)
		if err := gateWall(missing); err == nil || !strings.Contains(err.Error(), name+" missing") {
			t.Fatalf("missing %s: got %v, want a missing-benchmark error", name, err)
		}

		slow := passingRun()
		slow[name] = Result{NsPerOp: budget * 1.5}
		if err := gateWall(slow); err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Fatalf("over-budget %s: got %v, want a budget error", name, err)
		}
	}
}

func TestGateZeroAllocs(t *testing.T) {
	if len(zeroAllocGates) == 0 {
		t.Fatal("no zero-allocation gates configured")
	}
	if err := gateZeroAllocs(passingRun()); err != nil {
		t.Fatalf("gate failed on a passing run: %v", err)
	}
	for _, name := range zeroAllocGates {
		missing := passingRun()
		delete(missing, name)
		if err := gateZeroAllocs(missing); err == nil || !strings.Contains(err.Error(), name+" missing") {
			t.Fatalf("missing %s: got %v, want a missing-benchmark error", name, err)
		}

		// One allocation per op fails: the limit is exactly zero, with
		// none of the headroom the committed-count gate allows.
		one := passingRun()
		one[name] = Result{NsPerOp: 100, AllocsPerOp: 1}
		if err := gateZeroAllocs(one); err == nil || !strings.Contains(err.Error(), "allocates 1 times") {
			t.Fatalf("%s at 1 alloc/op: got %v, want an allocation error", name, err)
		}
	}
}
