// Package scratch holds the one slice-reuse idiom every hot-path
// package shares: grow a caller-owned buffer to the requested length,
// reallocating only when the capacity no longer fits. Centralizing it
// keeps the zeroing contract explicit — For hands back unspecified
// contents for buffers the caller overwrites entirely, Zeroed clears
// every element for buffers that accumulate — so call sites cannot
// silently inherit stale data by picking a divergent local helper.
//
// The package owns nothing but the two generic helpers; it imports
// nothing. Its consumers are the allocation-free hot paths: internal/lp
// (factor, pricing and standard-form scratch), internal/core (slot scratch)
// and internal/baseline (LP model build buffers).
package scratch

// For returns buf resized to n, reallocating only on growth. Contents
// are unspecified: callers must overwrite every element they read.
func For[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Zeroed returns buf resized to n with every element set to the zero
// value.
func Zeroed[T any](buf []T, n int) []T {
	buf = For(buf, n)
	var zero T
	for i := range buf {
		buf[i] = zero
	}
	return buf
}
