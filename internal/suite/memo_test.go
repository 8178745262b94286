package suite

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// runScenarios runs n copies of one scenario body under Run and fails
// the test on any scenario error.
func runScenarios(t *testing.T, cfg Config, n int, body func(Config) error) {
	t.Helper()
	scns := make([]Scenario, n)
	for i := range scns {
		scns[i] = Scenario{Name: fmt.Sprintf("memo-%d", i), Run: func(c Config) (*Table, error) {
			return &Table{}, body(c)
		}}
	}
	for _, r := range Run(cfg, scns) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
}

func TestOnceRunsOncePerRun(t *testing.T) {
	for _, parallel := range []int{1, 8} {
		var calls atomic.Int64
		// fn fans out through Map, as a tuning search does, while the
		// other scenarios wait on it holding their worker tokens.
		fn := func(c Config) func() (int, error) {
			return func() (int, error) {
				calls.Add(1)
				time.Sleep(2 * time.Millisecond)
				parts, err := Map(c, 4, func(i int) (int, error) { return i + 1, nil })
				if err != nil {
					return 0, err
				}
				return parts[0] + parts[1] + parts[2] + parts[3], nil
			}
		}
		body := func(c Config) error {
			v, err := Once(c, "shared", fn(c))
			if err != nil {
				return err
			}
			if v != 10 {
				return fmt.Errorf("Once = %d, want 10", v)
			}
			return nil
		}
		cfg := Config{Parallel: parallel}
		runScenarios(t, cfg, 16, body)
		if got := calls.Load(); got != 1 {
			t.Errorf("parallel=%d: fn ran %d times in one run, want 1", parallel, got)
		}
		// The memo belongs to the run: a second run computes again.
		runScenarios(t, cfg, 16, body)
		if got := calls.Load(); got != 2 {
			t.Errorf("parallel=%d: fn ran %d times over two runs, want 2", parallel, got)
		}
	}
}

func TestOnceWithoutRunCallsEveryTime(t *testing.T) {
	var calls atomic.Int64
	cfg := Config{Parallel: 4}
	out, err := Map(cfg, 10, func(i int) (int, error) {
		return Once(cfg, "shared", func() (int, error) { return int(calls.Add(1)), nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 10 {
		t.Fatalf("fn ran %d times outside a run, want 10 (no memo)", got)
	}
	if len(out) != 10 {
		t.Fatalf("out = %v", out)
	}
}

func TestOnceSharesError(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	scn := Scenario{Name: "memo-err", Run: func(c Config) (*Table, error) {
		_, err := Once(c, "failing", func() (*Table, error) {
			calls.Add(1)
			return nil, boom
		})
		return nil, err
	}}
	results := Run(Config{Parallel: 8}, []Scenario{scn, scn, scn, scn, scn})
	for i, r := range results {
		if !errors.Is(r.Err, boom) {
			t.Errorf("scenario %d: error %v, want the memoized %v", i, r.Err, boom)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("failing fn ran %d times, want 1", got)
	}
}

func TestOnceKeyTypesNeverCollide(t *testing.T) {
	type keyA struct{ n int }
	type keyB struct{ n int }
	runScenarios(t, Config{Parallel: 2}, 1, func(c Config) error {
		checks := []struct {
			name string
			get  func() (any, error)
			want any
		}{
			{"int", func() (any, error) { return Once(c, 1, func() (string, error) { return "int", nil }) }, "int"},
			{"int64", func() (any, error) { return Once(c, int64(1), func() (string, error) { return "int64", nil }) }, "int64"},
			{"keyA", func() (any, error) { return Once(c, keyA{1}, func() (string, error) { return "keyA", nil }) }, "keyA"},
			{"keyB", func() (any, error) { return Once(c, keyB{1}, func() (string, error) { return "keyB", nil }) }, "keyB"},
			// An equal key asked for another value type is another entry.
			{"int→int", func() (any, error) { return Once(c, 1, func() (int, error) { return 7, nil }) }, 7},
			// And the first entry still holds its own value.
			{"int again", func() (any, error) { return Once(c, 1, func() (string, error) { return "recomputed", nil }) }, "int"},
		}
		for _, ck := range checks {
			got, err := ck.get()
			if err != nil {
				return err
			}
			if got != ck.want {
				return fmt.Errorf("%s: Once = %v, want %v", ck.name, got, ck.want)
			}
		}
		return nil
	})
}
