package lp

import (
	"math"
	"math/rand"
	"testing"
)

// scanEnter is the pricing pass over every column that the eligible set
// replaced, kept as the oracle: the same segments, rotor, devex score
// and lowest-column tie-break, with eligibility tested column by column.
func (rs *revised) scanEnter(bland bool) (int, float64) {
	if bland {
		for j := 0; j < rs.n; j++ {
			if rs.eligible(j) {
				return j, rs.d[j]
			}
		}
		return -1, 0
	}
	seg := max(rs.n/32, 256)
	nseg := max((rs.n+seg-1)/seg, 1)
	for s := 0; s < nseg; s++ {
		si := (rs.rotor + s) % nseg
		lo, hi := si*seg, min(si*seg+seg, rs.n)
		bestJ, bestS := -1, 0.0
		for j := lo; j < hi; j++ {
			if d := rs.d[j]; rs.eligible(j) && d*d/rs.gamma[j] > bestS {
				bestJ, bestS = j, d*d/rs.gamma[j]
			}
		}
		if bestJ >= 0 {
			rs.rotor = si
			return bestJ, rs.d[bestJ]
		}
	}
	return -1, 0
}

// TestEligibleSetMatchesScan drives the eligible set through random
// reduced costs, statuses and bounds, drawn from a few values so scores
// tie, with column counts on both sides of a 64-bit word and of a
// pricing segment. nextEligible must list exactly the eligible columns
// of any range, and priceEnter must pick what the full scan picks, and
// leave the same rotor, in both modes and from random rotors.
func TestEligibleSetMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, n := range []int{1, 63, 64, 65, 255, 256, 257, 600, 9000} {
		rs := &revised{n: n}
		rs.d = make([]float64, n)
		rs.gamma = make([]float64, n)
		rs.status = make([]uint8, n)
		rs.ub = make([]float64, n)
		rs.elig = make([]uint64, (n+63)/64)
		for round := 0; round < 20; round++ {
			for j := 0; j < n; j++ {
				rs.d[j] = []float64{-2, -1, -costTol, -2e-9, 0, 2e-9, costTol, 1, 2}[r.Intn(9)]
				rs.gamma[j] = []float64{1, 4}[r.Intn(2)]
				rs.status[j] = uint8(r.Intn(3))
				rs.ub[j] = []float64{0, 1, math.Inf(1)}[r.Intn(3)]
				rs.markEligible(j)
			}
			for k := 0; k < 20; k++ {
				lo := r.Intn(n + 1)
				hi := lo + r.Intn(n+1-lo)
				j := rs.nextEligible(lo, hi)
				for want := lo; want < hi; want++ {
					if !rs.eligible(want) {
						continue
					}
					if j != want {
						t.Fatalf("n=%d [%d,%d): nextEligible gave %d, want %d", n, lo, hi, j, want)
					}
					j = rs.nextEligible(j+1, hi)
				}
				if j != hi {
					t.Fatalf("n=%d [%d,%d): nextEligible gave %d past the last eligible column", n, lo, hi, j)
				}
			}
			for _, bland := range []bool{true, false} {
				rotor := r.Intn(4)
				rs.rotor = rotor
				wantJ, wantD := rs.scanEnter(bland)
				wantRotor := rs.rotor
				rs.rotor = rotor
				gotJ, gotD := rs.priceEnter(bland, false)
				if gotJ != wantJ || gotD != wantD || rs.rotor != wantRotor {
					t.Fatalf("n=%d bland=%v: priceEnter %d/%g rotor %d, scan %d/%g rotor %d",
						n, bland, gotJ, gotD, rs.rotor, wantJ, wantD, wantRotor)
				}
			}
		}
	}
}
