package suite

import "sync"

// runMemo holds the results that scenarios of one Run share (see Once).
// Run installs a fresh one beside its token budget, so it lives exactly
// as long as the run.
type runMemo struct {
	mu      sync.Mutex
	entries map[any]any // onceKey[K, T] → *onceEntry[T]
}

// onceKey tags a caller's key with its key and value types, so keys of
// different types, or equal keys asked for values of different types,
// never share an entry.
type onceKey[K comparable, T any] struct{ key K }

// onceEntry memoizes one computation. Like a traceEntry, its sync.Once
// lets concurrent callers ask for a key while it is being computed:
// exactly one runs fn, the rest wait for its value.
type onceEntry[T any] struct {
	once sync.Once
	v    T
	err  error
}

// Once returns fn's result for key, running fn at most once per key in
// the run cfg belongs to: every other caller with an equal key (and the
// same value type) gets the first call's value and error, waiting if it
// is still being computed. Outside Run — a Config built by hand, as a
// direct Map or RunTune call uses — there is no memo and Once simply
// calls fn. Scenarios use it for results that several of them compute
// from the same inputs, so fn must depend only on key and the run's
// Config, and callers must treat the shared value as read-only.
//
// The one deadlock rule: fn must not call Once with its own key, directly
// or through the work it runs. fn may fan out through Map: a waiting
// caller keeps its worker token, but token acquisition never blocks, so
// fn's sweep still runs, in its own goroutine if need be.
func Once[K comparable, T any](cfg Config, key K, fn func() (T, error)) (T, error) {
	m := cfg.memo
	if m == nil {
		return fn()
	}
	k := onceKey[K, T]{key}
	m.mu.Lock()
	e, ok := m.entries[k].(*onceEntry[T])
	if !ok {
		e = new(onceEntry[T])
		m.entries[k] = e
	}
	m.mu.Unlock()
	e.once.Do(func() { e.v, e.err = fn() })
	return e.v, e.err
}
