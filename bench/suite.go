package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/smartdpss/smartdpss/internal/engine"
	"github.com/smartdpss/smartdpss/internal/experiments"
	"github.com/smartdpss/smartdpss/internal/suite"
)

// suiteSelectors is the researcher's reproduce-the-paper loop: every
// one-month scenario family except geo (the geo workload's) and the
// year-long annual family.
var suiteSelectors = []string{experiments.TagPaper, experiments.TagExt, experiments.TagProvision,
	experiments.TagFleet, experiments.TagTune}

// suiteGroups are the scenario groups with an experiments.<group>_s
// metric; suiteGroup names a scenario's group.
var suiteGroups = []string{"fig6v", "ext-mpc", "ext-seeds", "tune", "other"}

func suiteGroup(name string) string {
	switch {
	case name == "fig6v", name == "ext-mpc", name == "ext-seeds":
		return name
	case strings.HasPrefix(name, "tune-"):
		return "tune"
	}
	return "other"
}

// runSuiteWorkload runs suite.Run over the selected scenarios, once per
// operation, each on its own derived seed with the trace cache reset
// first, as in a fresh cmd/experiments run. The pool is fixed at width 2.
func runSuiteWorkload(o runOpts, tr *tracer) (*result, error) {
	cfg := suite.Config{Days: 31, Seeds: 5, Parallel: procs}
	selectors := suiteSelectors
	if o.small {
		cfg.Days = 2
		selectors = []string{"fig6v"}
	}
	// Set-up is what a fresh cmd/experiments run does before its first
	// scenario: select the scenarios. Each operation generates its own
	// traces, after a reset of the trace cache.
	scns, setup, err := timeSetup(o, func() ([]suite.Scenario, error) {
		return suite.Select(selectors...)
	})
	if err != nil {
		return nil, err
	}

	s := newSampler(o, tr)
	var first []byte
	var hits, misses []float64
	for s.more() {
		c := cfg
		c.Seed = subSeed(o.seed, len(s.lat))
		var out []byte
		s.do(float64(len(scns)), func(ctx opCtx) error {
			suite.ResetTraceCache()
			var err error
			out, err = runSuiteOnce(c, scns, ctx)
			return err
		})
		h, m := suite.TraceCacheStats()
		hits, misses = append(hits, float64(h)), append(misses, float64(m))
		if first == nil && out != nil {
			first = out
			if c.Seed == 1 && !o.small {
				if err := checkGolden(o.root, scns, out); err != nil {
					s.fail(err)
				}
			}
		}
	}
	s.stop()

	// Re-run the first operation's configuration sequentially: the suite's
	// output must not depend on the pool width.
	c := cfg
	c.Seed = o.seed
	c.Parallel = 1
	suite.ResetTraceCache()
	if again, err := runSuiteOnce(c, scns, opCtx{}); err != nil {
		s.fail(fmt.Errorf("sequential re-run: %w", err))
	} else if !bytes.Equal(again, first) {
		s.fail(fmt.Errorf("seed %d: sequential re-run differs from the pool run", c.Seed))
	}

	if tr != nil {
		// Trace generation happens inside the scenarios, on the pool;
		// time the base month's generation on its own.
		tc := cfg.TraceConfig()
		tc.Seed = o.seed
		for range 5 {
			id := tr.begin("engine.generate_traces", -1, -1)
			_, err := engine.GenerateTraces(tc)
			tr.end(id)
			if err != nil {
				s.fail(fmt.Errorf("trace generation: %w", err))
				break
			}
		}
	}

	res, err := s.result(setup)
	if err != nil || tr == nil {
		return res, err
	}
	res.metrics = append(res.metrics,
		metric{"suite.trace_cache_hits", "count", median(hits), len(hits)},
		metric{"suite.trace_cache_misses", "count", median(misses), len(misses)},
	)
	res.metrics = append(res.metrics, suiteLayers(tr, s)...)
	return res, nil
}

// runSuiteOnce runs the scenarios on the pool and renders every table,
// in registration order, the way cmd/experiments prints them. Scenario
// runners are wrapped in spans when ctx traces.
func runSuiteOnce(cfg suite.Config, scns []suite.Scenario, ctx opCtx) ([]byte, error) {
	if ctx.tr != nil {
		wrapped := make([]suite.Scenario, len(scns))
		for i, sc := range scns {
			inner, name := sc.Run, "experiments."+sc.Name
			sc.Run = func(c suite.Config) (*suite.Table, error) {
				id := ctx.begin(name)
				defer ctx.end(id)
				return inner(c)
			}
			wrapped[i] = sc
		}
		scns = wrapped
	}
	var buf bytes.Buffer
	for _, r := range suite.Run(cfg, scns) {
		if r.Err != nil {
			return nil, r.Err
		}
		if len(r.Table.Rows) == 0 {
			return nil, fmt.Errorf("scenario %s: empty table", r.Scenario.Name)
		}
		if err := r.Table.Fprint(&buf); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// checkGolden compares the paper tables inside out (the rendered run at
// the golden scope: 31 days, seed 1, 5 seeds) with the committed
// snapshots of internal/experiments/testdata/golden.
func checkGolden(root string, scns []suite.Scenario, out []byte) error {
	for _, sc := range scns {
		if !sc.HasTag(experiments.TagPaper) {
			continue
		}
		want, err := os.ReadFile(filepath.Join(root, "internal", "experiments", "testdata", "golden", sc.Name+".txt"))
		if err != nil {
			return fmt.Errorf("golden table: %w", err)
		}
		if !bytes.Contains(out, want) {
			return fmt.Errorf("scenario %s differs from its golden table", sc.Name)
		}
	}
	return nil
}

// suiteLayers derives the suite's per-layer metrics from the scenario
// spans of each traced operation.
func suiteLayers(tr *tracer, s *sampler) []metric {
	type opAgg struct {
		busy, straggler float64
		group           map[string]float64
	}
	ops := make(map[int32]*opAgg)
	for _, sp := range tr.closed() {
		name, ok := strings.CutPrefix(sp.name, "experiments.")
		if !ok || sp.op < 0 {
			continue
		}
		a := ops[sp.op]
		if a == nil {
			a = &opAgg{group: make(map[string]float64)}
			ops[sp.op] = a
		}
		a.busy += sp.dur
		a.straggler = max(a.straggler, sp.dur)
		a.group[suiteGroup(name)] += sp.self
	}
	var busy, straggler []float64
	groups := make(map[string][]float64)
	for op, a := range ops {
		busy = append(busy, 100*a.busy/1e9/(s.lat[op]*procs))
		straggler = append(straggler, a.straggler/1e9)
		for _, g := range suiteGroups {
			groups[g] = append(groups[g], a.group[g]/1e9)
		}
	}
	ms := []metric{
		{"suite.pool_busy_pct", "%", median(busy), len(busy)},
		{"suite.straggler_s", "s", median(straggler), len(straggler)},
	}
	for _, g := range suiteGroups {
		ms = append(ms, metric{"experiments." + g + "_s", "s", median(groups[g]), len(groups[g])})
	}
	return ms
}
