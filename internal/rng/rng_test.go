package rng

import (
	"math"
	"math/rand"
	"testing"
)

// parityDraws is the number of draws each parity check compares: four
// passes over the 607-word register, so every seeded word feeds the
// stream several times.
const parityDraws = 2500

// paritySeeds are the seeds where math/rand's normalisation has an edge:
// zero and its replacement 89482311, ±1, the modulus 2³¹−1 and its
// multiples, and the int64 extremes.
var paritySeeds = []int64{
	0, 1, -1, int32max, -int32max, 2 * int32max, 89482311,
	math.MinInt64, math.MaxInt64,
}

// checkParity compares NewSource(seed) with math/rand's source: the raw
// Uint64 stream, and Float64, NormFloat64 and Intn through rand.New.
func checkParity(t testing.TB, seed int64) {
	t.Helper()
	got, want := NewSource(seed), rand.NewSource(seed).(rand.Source64)
	for i := range parityDraws {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d: Uint64 draw %d is %#x, math/rand's is %#x", seed, i, g, w)
		}
	}
	gr, wr := rand.New(NewSource(seed)), rand.New(rand.NewSource(seed))
	for i := range parityDraws {
		if g, w := gr.Float64(), wr.Float64(); g != w {
			t.Fatalf("seed %d: Float64 draw %d is %v, math/rand's is %v", seed, i, g, w)
		}
		if g, w := gr.NormFloat64(), wr.NormFloat64(); g != w {
			t.Fatalf("seed %d: NormFloat64 draw %d is %v, math/rand's is %v", seed, i, g, w)
		}
		// Bounds on both sides of Intn's 32-bit fast path (on a 64-bit
		// platform math.MaxInt takes the Int63n path).
		n := []int{1, 7, 1 << 20, 1<<30 + 1, math.MaxInt}[i%5]
		if g, w := gr.Intn(n), wr.Intn(n); g != w {
			t.Fatalf("seed %d: Intn(%d) draw %d is %d, math/rand's is %d", seed, n, i, g, w)
		}
	}
}

// TestSourceParity holds the stream to math/rand's for the edge seeds
// and for 2,000 seeds drawn across the whole int64 range.
func TestSourceParity(t *testing.T) {
	for _, seed := range paritySeeds {
		checkParity(t, seed)
	}
	seeds := rand.New(rand.NewSource(29))
	for range 2000 {
		checkParity(t, int64(seeds.Uint64()))
	}
}

// TestReseedParity checks Seed on a used source: it must reset the
// stream exactly as math/rand's Seed does.
func TestReseedParity(t *testing.T) {
	got, want := NewSource(5), rand.NewSource(5).(rand.Source64)
	for range 100 {
		got.Uint64()
		want.Uint64()
	}
	got.Seed(-77)
	want.Seed(-77)
	for i := range parityDraws {
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("Int63 draw %d after Seed is %d, math/rand's is %d", i, g, w)
		}
	}
}

// TestLaneJumps recomputes each lane's jump multiplier as 48271 raised
// to the number of Lehmer steps math/rand takes before the lane's first
// word: 20 discarded, then three per word.
func TestLaneJumps(t *testing.T) {
	for l, jump := range laneJump {
		steps := 20 + 3*laneWords*l
		m := uint64(1)
		for range steps {
			m = m * lehmerA % int32max
		}
		if jump != m {
			t.Errorf("laneJump[%d] = %d, want 48271^%d mod (2³¹−1) = %d", l, jump, steps, m)
		}
	}
}

// FuzzSourceParity holds the stream to math/rand's for any seed.
func FuzzSourceParity(f *testing.F) {
	for _, seed := range paritySeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkParity(t, seed)
	})
}

var sink uint64

// seedsPerOp is the number of seeds one benchmark op applies: an 8-site
// geo month seeds four sources per site. make perf runs 20 ops, and one
// seed per op would time under 100 µs in all, too little for a same-run
// ratio to stay clear of scheduler noise.
const seedsPerOp = 32

// BenchmarkNewSource seeds a source from each of seedsPerOp varying
// seeds and draws once after each: the seeding a trace generator pays
// per source. The source is built once, so no op allocates: a source
// allocated per seed costs both rungs the same 4.9 KB and adds only GC
// noise to their ratio, which cmd/perf gates against
// BenchmarkAblationMathRandSource in the same run.
func BenchmarkNewSource(b *testing.B) {
	s := NewSource(0)
	for i := 0; i < b.N; i++ {
		for k := range seedsPerOp {
			s.Seed(int64(i*seedsPerOp + k))
			sink += s.Uint64()
		}
	}
}

// BenchmarkAblationMathRandSource is BenchmarkNewSource on math/rand's
// own source, seeded by its dependent chain of Schrage divisions.
func BenchmarkAblationMathRandSource(b *testing.B) {
	s := rand.NewSource(0).(rand.Source64)
	for i := 0; i < b.N; i++ {
		for k := range seedsPerOp {
			s.Seed(int64(i*seedsPerOp + k))
			sink += s.Uint64()
		}
	}
}
