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

func TestGateSpeedups(t *testing.T) {
	if len(speedupGates) == 0 {
		t.Fatal("no speedup gates configured")
	}
	g := speedupGates[0]
	cases := []struct {
		name    string
		edit    func(map[string]Result)
		wantErr string // empty: the gate passes
	}{
		{"pass", func(map[string]Result) {}, ""},
		{"missing fast side", func(m map[string]Result) { delete(m, g.fast) }, g.fast + " missing"},
		{"missing slow side", func(m map[string]Result) { delete(m, g.slow) }, g.slow + " missing"},
		{"ratio breach", func(m map[string]Result) {
			m[g.fast] = Result{NsPerOp: m[g.slow].NsPerOp * (g.maxRatio + 0.01)}
		}, "exceeds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fresh := passingRun()
			tc.edit(fresh)
			err := gateSpeedups(fresh)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("gate failed on a passing run: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("gate passed, want an error containing %q", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
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
