package suite

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrderAcrossParallelLevels(t *testing.T) {
	const n = 100
	var want []int
	for i := 0; i < n; i++ {
		want = append(want, i*i)
	}
	for _, parallel := range []int{1, 2, 8, n + 5} {
		got, err := Map(Config{Parallel: parallel}, n, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("parallel=%d: out[%d] = %d, want %d", parallel, i, got[i], want[i])
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(Config{}, 0, func(i int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("Map(0 jobs) = %v, %v", out, err)
	}
}

func TestMapFirstErrorByIndex(t *testing.T) {
	// Two failing jobs; the reported error must be the lowest index no
	// matter which goroutine finishes first.
	for _, parallel := range []int{1, 8} {
		_, err := Map(Config{Parallel: parallel}, 10, func(i int) (int, error) {
			if i == 3 || i == 7 {
				return 0, fmt.Errorf("boom %d", i)
			}
			return i, nil
		})
		if err == nil {
			t.Fatalf("parallel=%d: no error", parallel)
		}
		if !strings.Contains(err.Error(), "job 3") || !strings.Contains(err.Error(), "boom 3") {
			t.Errorf("parallel=%d: error %q, want job 3's", parallel, err)
		}
	}
}

func TestConfigPoolWidth(t *testing.T) {
	if got := (Config{Parallel: 4}).poolWidth(); got != 4 {
		t.Errorf("poolWidth(4) = %d", got)
	}
	if got := (Config{Parallel: -3}).poolWidth(); got != 1 {
		t.Errorf("poolWidth(-3) = %d, want 1", got)
	}
	if got := (Config{}).poolWidth(); got < 1 {
		t.Errorf("poolWidth(0) = %d < 1", got)
	}
}

// concurrency counts how many of its jobs run at once.
type concurrency struct{ cur, peak atomic.Int64 }

// job is a millisecond-long pool job that records the peak.
func (c *concurrency) job(i int) (int, error) {
	n := c.cur.Add(1)
	for {
		p := c.peak.Load()
		if n <= p || c.peak.CompareAndSwap(p, n) {
			break
		}
	}
	time.Sleep(time.Millisecond)
	c.cur.Add(-1)
	return i, nil
}

func TestNestedFanOutSharesBudget(t *testing.T) {
	// A suite of scenarios that each fan out their own sweep must stay
	// within one shared Parallel budget, not Parallel per level.
	const width = 2
	var c concurrency
	scn := Scenario{Name: "nested-budget", Run: func(cfg Config) (*Table, error) {
		if _, err := Map(cfg, 6, c.job); err != nil {
			return nil, err
		}
		return &Table{}, nil
	}}
	results := Run(Config{Parallel: width}, []Scenario{scn, scn, scn, scn})
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if p := c.peak.Load(); p > width {
		t.Fatalf("peak concurrency %d exceeds the Parallel=%d budget", p, width)
	}
}

func TestMapBudgetBoundsWidthAndReturnsTokens(t *testing.T) {
	// A fan-out handed a shared budget larger than its own width still
	// runs at most parallel jobs at once, returns the lowest-index error
	// as the job returned it, and hands every token back.
	const budget, parallel = 6, 2
	tokens := newTokens(budget + 1)
	var c concurrency
	boom := errors.New("boom")
	_, err := MapBudget(parallel, tokens, 8, func(i int) (int, error) {
		c.job(i)
		if i == 3 || i == 6 {
			return 0, fmt.Errorf("job %d: %w", i, boom)
		}
		return i, nil
	})
	if !errors.Is(err, boom) || err.Error() != "job 3: boom" {
		t.Errorf("error %v, want job 3's", err)
	}
	if p := c.peak.Load(); p > parallel {
		t.Errorf("peak concurrency %d exceeds parallel=%d", p, parallel)
	}
	if got := len(tokens); got != budget {
		t.Errorf("budget not restored: %d tokens, want %d", got, budget)
	}
}

func TestRunCollectsPerScenarioErrors(t *testing.T) {
	ok := Scenario{Name: "run-ok", Run: func(Config) (*Table, error) {
		return &Table{Title: "ok"}, nil
	}}
	bad := Scenario{Name: "run-bad", Run: func(Config) (*Table, error) {
		return nil, errors.New("scenario exploded")
	}}
	results := Run(Config{Parallel: 2}, []Scenario{ok, bad, ok})
	if len(results) != 3 {
		t.Fatalf("results = %d, want 3", len(results))
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Errorf("healthy scenarios errored: %v, %v", results[0].Err, results[2].Err)
	}
	if results[0].Table == nil || results[0].Table.Title != "ok" {
		t.Errorf("result 0 table = %+v", results[0].Table)
	}
	err := results[1].Err
	if err == nil {
		t.Fatal("failing scenario reported no error")
	}
	if !strings.Contains(err.Error(), "run-bad") || !strings.Contains(err.Error(), "scenario exploded") {
		t.Errorf("error %q does not name the scenario and cause", err)
	}
}

func TestRunSuiteErrorPropagation(t *testing.T) {
	testScenario(t, "rs-ok-1", "rs-fail-suite")
	register(t, Scenario{
		Name: "rs-fail",
		Tags: []string{"rs-fail-suite"},
		Run: func(Config) (*Table, error) {
			return nil, errors.New("mid-suite failure")
		},
	})
	testScenario(t, "rs-ok-2", "rs-fail-suite")

	if _, err := RunSuite(Config{Parallel: 4}, "rs-fail-suite"); err == nil {
		t.Fatal("RunSuite swallowed the failure")
	} else if !strings.Contains(err.Error(), "rs-fail") {
		t.Errorf("error %q does not name the failing scenario", err)
	}

	// A healthy selection still returns its tables in order.
	tables, err := RunSuite(Config{Parallel: 4}, "rs-ok-2", "rs-ok-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 || tables[0].Title != "rs-ok-1" || tables[1].Title != "rs-ok-2" {
		t.Fatalf("tables = %+v", tables)
	}

	if _, err := RunSuite(Config{}, "rs-no-such"); err == nil {
		t.Fatal("unknown selector accepted")
	}
}
