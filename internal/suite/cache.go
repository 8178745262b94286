package suite

import (
	"sync"

	"github.com/smartdpss/smartdpss/internal/engine"
)

// maxCachedTraces bounds the memoized trace sets. Sweeps reuse a
// handful of configurations (most scenarios share the suite's base
// TraceConfig); multi-seed runs add one entry per seed. Past the bound
// the cache resets rather than evicting — simpler, and a full suite
// never gets close.
const maxCachedTraces = 128

// traceEntry memoizes one generation. The sync.Once lets concurrent
// scenarios request the same configuration while it is still being
// generated: exactly one goroutine generates, the rest wait.
type traceEntry struct {
	once sync.Once
	tr   *engine.Traces
	err  error
}

var traceCache = struct {
	mu     sync.Mutex
	m      map[engine.TraceConfig]*traceEntry
	hits   int64
	misses int64
}{m: make(map[engine.TraceConfig]*traceEntry)}

// tracePool recycles released trace clones: a sweep point that calls
// Release hands its buffers to the next Traces call, which copies the
// memoized master over them instead of allocating a fresh deep copy.
// Entries of a different shape are handled transparently — CloneInto
// reallocates any series that does not fit.
var tracePool sync.Pool

// Traces returns the synthetic trace set for tc, generating it at most
// once per distinct configuration and handing out a private deep copy.
// The copy is essential: scenarios mutate their traces (SetPenetration,
// ScaleSystem), and a shared set would race and corrupt other scenarios'
// inputs. A cooled configuration is generated on every call and not
// cached: its CoolingConfig is a pointer, and a key holding it would
// match by identity, not by value. Call Release when a sweep point is
// done with its copy to let the next point reuse the buffers.
func Traces(tc engine.TraceConfig) (*engine.Traces, error) {
	if tc.Cooling != nil {
		return engine.GenerateTraces(tc)
	}
	traceCache.mu.Lock()
	e, ok := traceCache.m[tc]
	if ok {
		traceCache.hits++
	} else {
		if len(traceCache.m) >= maxCachedTraces {
			traceCache.m = make(map[engine.TraceConfig]*traceEntry)
		}
		e = &traceEntry{}
		traceCache.m[tc] = e
		traceCache.misses++
	}
	traceCache.mu.Unlock()
	e.once.Do(func() {
		e.tr, e.err = engine.GenerateTraces(tc)
	})
	if e.err != nil {
		return nil, e.err
	}
	if buf, ok := tracePool.Get().(*engine.Traces); ok {
		return e.tr.CloneInto(buf), nil
	}
	return e.tr.Clone(), nil
}

// Release returns a trace set obtained from Traces to the clone pool so
// a later sweep point can reuse its buffers. Callers must not touch the
// set afterwards; releasing is optional (an unreleased set is simply
// garbage-collected) and nil is a no-op.
func Release(tr *engine.Traces) {
	if tr != nil {
		tracePool.Put(tr)
	}
}

// TraceCacheStats reports cumulative cache hits and misses (a miss is a
// generation; a cooled configuration, generated on every call, counts
// as neither).
func TraceCacheStats() (hits, misses int64) {
	traceCache.mu.Lock()
	defer traceCache.mu.Unlock()
	return traceCache.hits, traceCache.misses
}

// ResetTraceCache drops every memoized trace set and zeroes the stats.
func ResetTraceCache() {
	traceCache.mu.Lock()
	defer traceCache.mu.Unlock()
	traceCache.m = make(map[engine.TraceConfig]*traceEntry)
	traceCache.hits, traceCache.misses = 0, 0
}
