// Package suite is the parallel scenario-suite engine behind
// cmd/experiments and the public smartdpss.RunSuite API.
//
// It provides four pieces:
//
//   - a Scenario registry (registry.go): every experiment runner in
//     internal/experiments registers itself under a stable name with
//     tags ("paper", "ext", ...), so callers can enumerate, look up and
//     select scenarios without hard-coding the list in every driver;
//
//   - a worker-pool executor (pool.go): Map fans N independent jobs out
//     across a bounded number of goroutines and returns their results in
//     index order, so a sweep parallelized with Map is byte-identical to
//     the sequential loop it replaced; MapBudget is the same pool for
//     callers that carry a width and a token budget instead of a Config;
//
//   - a memoized trace cache (cache.go): Traces returns a private clone
//     of the synthetic trace set for a TraceConfig, generating each
//     distinct configuration exactly once even when many scenarios
//     request it concurrently;
//
//   - the suite driver (RunSuite): resolves name/tag selectors and runs
//     whole scenarios as pool jobs, propagating the first failure by
//     registration order.
//
// Determinism is the design invariant: results depend only on Config,
// never on Parallel. Jobs derive any randomness from Config.Seed plus
// their point index (see Config.PointSeed) and never share a rand.Rand;
// the executor assigns results by index, not completion order.
package suite

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"

	"github.com/smartdpss/smartdpss/internal/engine"
)

// Config scopes a suite run.
type Config struct {
	// Days is the trace horizon (paper: 31).
	Days int
	// Seed drives the synthetic generators.
	Seed int64
	// SkipOffline drops the clairvoyant offline-LP benchmark columns
	// (useful for quick runs; the offline LPs dominate the runtime).
	SkipOffline bool
	// Seeds is the seed count for multi-seed scenarios (0 means 5).
	Seeds int
	// Parallel bounds the worker pool: 0 means GOMAXPROCS and a
	// negative value means 1 (sequential). The bound is global per run:
	// scenario-level fan-out and the scenarios' inner sweeps draw from
	// one shared budget. Results are identical at every level; only
	// wall-clock changes.
	Parallel int

	// tokens is the run's shared worker budget, installed by Run (nil
	// for direct Map calls, which then budget themselves). Carrying it
	// in the Config keeps nested fan-outs bounded by Parallel without
	// any global state.
	tokens chan struct{}
}

// SpawnBudget returns the run's shared worker-token channel (nil outside
// Run). Scenario code that fans out through MapBudget instead of Map —
// a geo run generates and runs its sites on one worker per site — passes
// it along so nested parallelism stays bounded by the same global
// Parallel budget instead of multiplying it.
func (c Config) SpawnBudget() chan struct{} { return c.tokens }

// DefaultConfig matches the paper's one-month setup.
func DefaultConfig() Config {
	return Config{Days: 31, Seed: 1}
}

// TraceConfig translates the suite scope into a trace request.
func (c Config) TraceConfig() engine.TraceConfig {
	tc := engine.DefaultTraceConfig()
	tc.Days = c.Days
	tc.Seed = c.Seed
	return tc
}

// PointSeed derives an independent child seed for sweep point i. Jobs
// that need their own randomness must use a derived seed instead of
// sharing a rand.Rand, or results would depend on execution order.
func (c Config) PointSeed(i int) int64 {
	return c.Seed + int64(i)*1000
}

// SeedCount returns the effective multi-seed scenario width.
func (c Config) SeedCount() int {
	if c.Seeds <= 0 {
		return 5
	}
	return c.Seeds
}

// Table is a printable scenario result.
type Table struct {
	// Title names the reproduced figure.
	Title string
	// Note captures the fixed parameters and reading guidance.
	Note string
	// Columns are the header cells.
	Columns []string
	// Rows are the data cells, already formatted.
	Rows [][]string
}

// AddRow appends one formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "## %s\n", t.Title); err != nil {
		return err
	}
	if t.Note != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.Note); err != nil {
			return err
		}
	}
	line := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = pad(cell, widths[i])
		}
		_, err := fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
		return err
	}
	if err := line(t.Columns); err != nil {
		return err
	}
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	if err := line(seps); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := line(row); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// WriteCSV renders the table as CSV (one header row plus data rows), for
// piping experiment results into plotting tools.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return fmt.Errorf("suite: write header: %w", err)
	}
	for i, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("suite: write row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}
