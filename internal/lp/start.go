package lp

import (
	"math"
	"slices"
)

// coldStart is a saved crash basis with its first factorization, and
// the matrix they were computed from. Both are functions of the matrix
// alone: crash reads the CSC arrays, which columns are slacks (the
// columns from nstruct on) and the row-major order rcol it walks rows
// in, and factorize reads the basis and the CSC values. Costs, bounds
// and right-hand sides enter only afterwards. So a problem whose matrix
// equals the saved one bit for bit may start from the saved pair, and
// it then follows the pivot sequence a fresh crash and factorize would
// give it. Lookahead's receding windows and the per-interval LPs repeat
// one matrix solve after solve, with new costs and right-hand sides.
//
// A Solver saves a start only when two consecutive solves share a
// matrix fingerprint, so a sequence of distinct matrices (the
// whole-horizon and annual LPs) copies nothing, and restores one only
// after an exact compare.
type coldStart struct {
	ok       bool
	key      uint64 // fingerprint of the saved matrix
	nstruct  int
	colStart []int32
	colRow   []int32
	colVal   []float64
	rcol     []int32
	basisVar []int32 // the basis after the first factorization's placeholder patches
	lu       basisLU // its factors (copyFactors)
}

// startBasis gives the freshly built s.rev its crash basis and first
// factorization: restored from s.start when the matrix is the saved one
// bit for bit, computed otherwise, and then saved when this solve's
// matrix fingerprint equals the previous solve's. A restored matrix is
// the saved one, so its fingerprint is the saved key and needs no
// hashing.
func (s *Solver) startBasis() {
	rs := &s.rev
	if s.start.matches(rs) {
		s.start.restore(rs)
		s.lastKey = s.start.key
		s.restored++
		return
	}
	rs.crash(&s.sf)
	rs.lu.factorize(rs)
	key := rs.fingerprint()
	if key == s.lastKey {
		s.start.save(rs, key)
	}
	s.lastKey = key
}

// fingerprint hashes what the crash basis and the first factorization
// depend on (FNV-1a over 64-bit words). It only decides whether a start
// is saved; restoring one takes the exact compare of coldStart.matches.
func (rs *revised) fingerprint() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	h = (h ^ uint64(rs.m)) * prime
	h = (h ^ uint64(rs.nstruct)) * prime
	for _, v := range rs.colStart {
		h = (h ^ uint64(v)) * prime
	}
	for _, v := range rs.colRow {
		h = (h ^ uint64(v)) * prime
	}
	for _, v := range rs.colVal {
		h = (h ^ math.Float64bits(v)) * prime
	}
	for _, v := range rs.sf.rcol {
		h = (h ^ uint64(v)) * prime
	}
	return h
}

// matches reports whether rs's matrix is the saved one bit for bit: the
// CSC arrays, the slack columns and the row-major order crash walks.
func (st *coldStart) matches(rs *revised) bool {
	return st.ok && rs.m == len(st.basisVar) && rs.nstruct == st.nstruct &&
		slices.Equal(rs.colStart, st.colStart) && slices.Equal(rs.colRow, st.colRow) &&
		slices.EqualFunc(rs.colVal, st.colVal, sameBits) && slices.Equal(rs.sf.rcol, st.rcol)
}

// sameBits compares two floats by their IEEE bits, so −0 differs from 0.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// save records rs's matrix, fingerprinted as key, with the basis and
// factors its crash and first factorize just produced.
func (st *coldStart) save(rs *revised, key uint64) {
	st.ok, st.key, st.nstruct = true, key, rs.nstruct
	st.colStart = append(st.colStart[:0], rs.colStart...)
	st.colRow = append(st.colRow[:0], rs.colRow...)
	st.colVal = append(st.colVal[:0], rs.colVal...)
	st.rcol = append(st.rcol[:0], rs.sf.rcol...)
	st.basisVar = append(st.basisVar[:0], rs.basisVar...)
	st.lu.copyFactors(&rs.lu)
}

// restore puts rs, freshly built over the saved matrix, where its crash
// and first factorize would have left it.
func (st *coldStart) restore(rs *revised) {
	copy(rs.basisVar, st.basisVar)
	for pos, v := range rs.basisVar {
		rs.status[v] = inBasis
		rs.posOf[v] = int32(pos)
	}
	rs.lu.restoreFactors(&st.lu)
}
