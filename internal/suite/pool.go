package suite

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// width is the one pool-width rule behind every fan-out (Map, Run and
// the geo per-site fan-out through MapBudget): a positive width is
// taken as given, 0 means GOMAXPROCS and a negative width means 1, a
// sequential pool.
func width(parallel int) int {
	switch {
	case parallel < 0:
		return 1
	case parallel == 0:
		return runtime.GOMAXPROCS(0)
	}
	return parallel
}

// poolWidth resolves the configured worker-pool width.
func (c Config) poolWidth() int { return width(c.Parallel) }

// newTokens builds the spawn budget of a pool of width w: w−1 tokens,
// since the goroutine entering the pool always works itself.
func newTokens(w int) chan struct{} {
	tokens := make(chan struct{}, w-1)
	for i := 0; i < w-1; i++ {
		tokens <- struct{}{}
	}
	return tokens
}

// Map runs fn for every index in [0, n) on the worker pool and returns
// the results in index order. The calling goroutine is always one of
// the workers; extra workers spawn only while a token from the run's
// shared budget (Config.Parallel total, GOMAXPROCS when zero) is
// available. The budget spans nested fan-outs: when suite.Run fans
// scenarios out and each scenario's runner calls Map for its own sweep,
// total concurrency across both levels stays bounded by the configured
// width instead of multiplying. Acquisition is non-blocking, so nesting
// can never deadlock — with no token to spare, a Map simply runs its
// jobs sequentially in its caller.
//
// Every job runs even after another job has failed (jobs are
// independent and cheap relative to scheduling bookkeeping); the error
// returned is the failed job with the lowest index, labelled with that
// index, so error reporting is deterministic regardless of completion
// order.
func Map[T any](cfg Config, n int, fn func(i int) (T, error)) ([]T, error) {
	return MapBudget(cfg.Parallel, cfg.tokens, n, func(i int) (T, error) {
		v, err := fn(i)
		if err != nil {
			err = fmt.Errorf("job %d: %w", i, err)
		}
		return v, err
	})
}

// MapBudget is Map's pool for fan-outs that carry their own bound
// instead of a suite Config, such as the geo per-site fan-out. At most
// parallel workers run (resolved like Config.Parallel), the caller
// included. When tokens is non-nil it is a shared spawn budget
// (Config.SpawnBudget) that every extra worker draws from and returns
// to, so the fan-out nests inside a suite run without multiplying its
// width; nil budgets the call on its own. The error returned is the
// lowest-index failure, exactly as the job returned it.
func MapBudget[T any](parallel int, tokens chan struct{}, n int, fn func(i int) (T, error)) ([]T, error) {
	p := &pool[T]{fn: fn, out: make([]T, n), errs: make([]error, n)}
	extra := min(width(parallel), n) - 1
	if tokens == nil && extra > 0 {
		tokens = newTokens(extra + 1)
	}
spawn:
	for ; extra > 0; extra-- {
		select {
		case <-tokens:
			p.wg.Add(1)
			go p.worker(tokens)
		default:
			break spawn
		}
	}
	p.work()
	p.wg.Wait()
	for _, err := range p.errs {
		if err != nil {
			return nil, err
		}
	}
	return p.out, nil
}

// pool is the state one MapBudget call shares with the workers it
// spawns.
type pool[T any] struct {
	fn   func(i int) (T, error)
	out  []T
	errs []error
	next atomic.Int64 // the lowest unclaimed job index
	wg   sync.WaitGroup
}

// work claims and runs jobs until none is left.
func (p *pool[T]) work() {
	for {
		i := int(p.next.Add(1)) - 1
		if i >= len(p.out) {
			return
		}
		p.out[i], p.errs[i] = p.fn(i)
	}
}

// worker is a spawned worker: it returns its token to the budget before
// signalling done, so the budget is whole again when MapBudget returns.
func (p *pool[T]) worker(tokens chan struct{}) {
	p.work()
	tokens <- struct{}{}
	p.wg.Done()
}

// Result pairs a scenario with its outcome.
type Result struct {
	Scenario Scenario
	Table    *Table
	Err      error
}

// Run executes the scenarios as pool jobs — sharing one worker budget
// with every nested Map the scenario runners issue — and returns one
// Result per scenario, in input order. Unlike Map it does not stop at
// the first failure: drivers like cmd/experiments want every table that
// did succeed plus the per-scenario errors.
func Run(cfg Config, scns []Scenario) []Result {
	if cfg.tokens == nil {
		cfg.tokens = newTokens(cfg.poolWidth())
	}
	results, _ := Map(cfg, len(scns), func(i int) (Result, error) {
		tbl, err := scns[i].Run(cfg)
		if err != nil {
			err = fmt.Errorf("suite: scenario %s: %w", scns[i].Name, err)
		}
		return Result{Scenario: scns[i], Table: tbl, Err: err}, nil
	})
	return results
}

// RunSuite resolves the selectors (names or tags; none selects every
// registered scenario) and runs the matching scenarios on the pool. On
// failure it returns the error of the first failing scenario in
// registration order.
func RunSuite(cfg Config, selectors ...string) ([]*Table, error) {
	scns, err := Select(selectors...)
	if err != nil {
		return nil, err
	}
	results := Run(cfg, scns)
	tables := make([]*Table, len(results))
	for i, r := range results {
		if r.Err != nil {
			return nil, r.Err
		}
		tables[i] = r.Table
	}
	return tables, nil
}
