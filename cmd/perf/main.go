// Command perf turns `go test -bench -benchmem` output into the
// repository's machine-readable benchmark trajectory file (BENCH_*.json)
// and gates allocation regressions in CI.
//
// Usage:
//
//	go test -bench='...' -benchmem -run '^$' . ./internal/lp | go run ./cmd/perf -out BENCH_10.json
//	go test -bench='...' -benchmem -run '^$' . ./internal/lp | go run ./cmd/perf -check BENCH_10.json -out /tmp/bench.json
//
// The tool reads benchmark result lines from stdin. With -out it writes
// a JSON file holding the parsed numbers as the "current" block; when
// the output file already exists (or -check names a committed file) its
// "baseline" block is carried over unchanged, so the pre-refactor
// reference measurements survive regeneration.
//
// With -check FILE the parsed results are additionally compared against
// FILE's "current" block: the run fails (exit 1) when the allocation
// count of any gated benchmark regresses beyond the tolerance, or when a
// slot-loop rung allocates at all. Allocations per op are deterministic
// — unlike ns/op they do not depend on CI machine load — which makes
// them the right regression signal for an allocation-free hot path. Two
// further gate families run on the -check path: same-run speedup ratios
// (sparse vs dense staircase LP, and internal/rng's seeding vs
// math/rand's; load-independent) and coarse absolute
// wall-clock budgets (the annual LP's ≤20 s hyper-sparsity pin). Every
// benchmark a gate names must appear in the input, so a renamed or moved
// benchmark fails the check instead of silently disabling its gate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strconv"
)

// Result is one benchmark measurement.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"b_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Block is a named set of measurements with provenance.
type Block struct {
	Note       string            `json:"note,omitempty"`
	Go         string            `json:"go,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

// File is the on-disk BENCH_*.json schema.
type File struct {
	Schema   string `json:"schema"`
	Baseline *Block `json:"baseline,omitempty"`
	Current  *Block `json:"current"`
}

// gated lists the benchmarks whose allocs/op may not regress, with the
// multiplicative headroom the check allows (buffer-growth paths can
// differ by a few allocations between environments).
var gated = map[string]float64{
	"BenchmarkDefaultsSimulation":       1.10,
	"BenchmarkFleetDispatch":            1.10,
	"BenchmarkAblationP5LP":             1.10,
	"BenchmarkAblationOfflineHorizonLP": 1.10,
	// The geo fan-out gate: allocations are proportional to site count
	// (setup only), with zero allocations in a site's per-slot step.
	// A regression that allocates per slot multiplies allocs/op by the
	// 168-slot horizon and trips every fleet size at once.
	"BenchmarkGeoStep/sites=1": 1.10,
	"BenchmarkGeoStep/sites=2": 1.10,
	"BenchmarkGeoStep/sites=4": 1.10,
	"BenchmarkGeoStep/sites=8": 1.10,
	// One tuner objective evaluation: the unit of work RunTune repeats
	// for its whole budget, so a per-evaluation allocation regression
	// multiplies across every tuning run.
	"BenchmarkTuneEvaluate": 1.10,
}

// zeroAllocGates are the slot-loop rungs, which must allocate nothing:
// their limit is exactly 0 allocs/op, not the committed count plus
// headroom, so a single allocation per slot fails the check. The session
// slot (Step+Commit, internal/engine) sits on the controller-planning
// rungs (internal/core): one P5 pair and one fine slot of planning,
// without and with a generation fleet.
var zeroAllocGates = []string{
	"BenchmarkSessionSlot",
	"BenchmarkSolveBest",
	"BenchmarkPlanFine",
	"BenchmarkPlanFineFleet",
}

// speedupGates are same-run ns/op ratio assertions: each entry requires
// fast ≤ maxRatio × slow, and a breach reports the entry's reason.
// Comparing two measurements from the same run keeps the gate
// machine-load independent (both sides see the same CPU), unlike an
// absolute ns/op threshold. The staircase entry is the sparse revised
// simplex's reason to exist: internal/lp solves the same 72-slot
// staircase LP on it and on the tests' dense tableau oracle, and if the
// sparse side stops clearly beating the dense one, the solver has
// regressed. The seeding entry is internal/rng's: its source must seed
// math/rand's state in well under half of math/rand's own time (about
// a quarter when measured), or trace generation pays the seeding cost
// again.
var speedupGates = []speedupGate{
	{"BenchmarkHorizonStairSparse", "BenchmarkHorizonStairDense", 0.70,
		"the sparse path no longer beats the dense tableau"},
	{"BenchmarkNewSource", "BenchmarkAblationMathRandSource", 0.50,
		"the lane-parallel seeding takes over half of math/rand's time"},
}

// speedupGate requires fast ≤ maxRatio × slow; reason says what a
// breach means.
type speedupGate struct {
	fast, slow string
	maxRatio   float64
	reason     string
}

// wallGates are absolute wall-clock budgets in ns/op. Unlike the alloc
// and same-run ratio gates these are machine-load sensitive; they exist
// to catch order-of-magnitude regressions, not percent-level drift. The
// annual entry pins the hyper-sparse revised simplex: the year-long
// (8760-slot) whole-horizon LP took ~200 s before the hyper-sparse
// FTRAN/BTRAN kernels, so a return to the dense-vector per-pivot cost
// blows this budget immediately. BENCH_10.json records the LP at 9.62 s
// in its PR-9 baseline block but at 19.86 s in its current block, so
// the budget has almost no headroom on a slower or loaded machine
// (ROADMAP item 7).
var wallGates = map[string]float64{
	"BenchmarkAblationOfflineAnnualLP": 20e9,
}

var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op\s+(\d+) B/op\s+(\d+) allocs/op`)

func main() {
	out := flag.String("out", "", "write the parsed results to this JSON file")
	check := flag.String("check", "", "fail if allocs/op regress versus this committed JSON file")
	note := flag.String("note", "", "provenance note stored with the current block")
	flag.Parse()

	results := make(map[string]Result)
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // pass the raw output through for the log
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, _ := strconv.ParseFloat(m[2], 64)
		bytes, _ := strconv.ParseInt(m[3], 10, 64)
		allocs, _ := strconv.ParseInt(m[4], 10, 64)
		results[m[1]] = Result{NsPerOp: ns, BytesPerOp: bytes, AllocsPerOp: allocs}
	}
	if err := sc.Err(); err != nil {
		fatalf("reading stdin: %v", err)
	}
	if len(results) == 0 {
		fatalf("no benchmark result lines found on stdin (did you pass -benchmem?)")
	}

	if *check != "" {
		committed, err := load(*check)
		if err != nil {
			fatalf("loading %s: %v", *check, err)
		}
		if err := gate(results, committed); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("perf: allocation gate passed against %s\n", *check)
		if err := gateZeroAllocs(results); err != nil {
			fatalf("%v", err)
		}
		if err := gateSpeedups(results); err != nil {
			fatalf("%v", err)
		}
		if err := gateWall(results); err != nil {
			fatalf("%v", err)
		}
	}

	if *out != "" {
		f := File{Schema: "smartdpss-bench/v1"}
		// Carry the committed baseline block forward so regeneration never
		// loses the pre-refactor reference.
		for _, prev := range []string{*out, *check} {
			if prev == "" {
				continue
			}
			if old, err := load(prev); err == nil && old.Baseline != nil {
				f.Baseline = old.Baseline
				break
			}
		}
		f.Current = &Block{Note: *note, Go: runtime.Version(), Benchmarks: results}
		buf, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			fatalf("encoding: %v", err)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fatalf("writing %s: %v", *out, err)
		}
		fmt.Printf("perf: wrote %s (%d benchmarks)\n", *out, len(results))
	}
}

func load(path string) (*File, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, err
	}
	return &f, nil
}

// gate compares fresh allocs/op against the committed current block.
func gate(fresh map[string]Result, committed *File) error {
	if committed.Current == nil {
		return fmt.Errorf("committed file has no current block")
	}
	for name, slack := range gated {
		want, ok := committed.Current.Benchmarks[name]
		if !ok {
			continue // benchmark not tracked yet
		}
		got, ok := fresh[name]
		if !ok {
			return fmt.Errorf("gated benchmark %s missing from this run", name)
		}
		limit := int64(float64(want.AllocsPerOp)*slack) + 2
		if got.AllocsPerOp > limit {
			return fmt.Errorf("%s allocations regressed: %d allocs/op vs committed %d (limit %d)",
				name, got.AllocsPerOp, want.AllocsPerOp, limit)
		}
		fmt.Printf("perf: %s at %d allocs/op (committed %d, limit %d)\n",
			name, got.AllocsPerOp, want.AllocsPerOp, limit)
	}
	return nil
}

// gateZeroAllocs enforces zeroAllocGates. Every gated benchmark must have
// been measured in this run.
func gateZeroAllocs(fresh map[string]Result) error {
	for _, name := range zeroAllocGates {
		got, ok := fresh[name]
		if !ok {
			return fmt.Errorf("zero-allocation gated benchmark %s missing from this run", name)
		}
		if got.AllocsPerOp != 0 {
			return fmt.Errorf("%s allocates %d times per op; a slot-loop rung must allocate nothing",
				name, got.AllocsPerOp)
		}
		fmt.Printf("perf: %s at 0 allocs/op (limit 0)\n", name)
	}
	return nil
}

// gateSpeedups enforces the same-run ns/op ratio gates. Both benchmarks
// of every gate must have been measured in this run.
func gateSpeedups(fresh map[string]Result) error {
	for _, g := range speedupGates {
		for _, name := range []string{g.fast, g.slow} {
			if _, ok := fresh[name]; !ok {
				return fmt.Errorf("speedup-gated benchmark %s missing from this run", name)
			}
		}
		fast, slow := fresh[g.fast], fresh[g.slow]
		if slow.NsPerOp <= 0 {
			return fmt.Errorf("%s measured at %.0f ns/op; cannot gate a ratio against it",
				g.slow, slow.NsPerOp)
		}
		ratio := fast.NsPerOp / slow.NsPerOp
		if ratio > g.maxRatio {
			return fmt.Errorf("%s/%s ratio %.3f exceeds %.2f: %s",
				g.fast, g.slow, ratio, g.maxRatio, g.reason)
		}
		fmt.Printf("perf: %s at %.3fx of %s (gate %.2f)\n", g.fast, ratio, g.slow, g.maxRatio)
	}
	return nil
}

// gateWall enforces the absolute wall-clock budgets. Every budgeted
// benchmark must have been measured in this run.
func gateWall(fresh map[string]Result) error {
	for name, budget := range wallGates {
		got, ok := fresh[name]
		if !ok {
			return fmt.Errorf("wall-clock gated benchmark %s missing from this run", name)
		}
		if got.NsPerOp > budget {
			return fmt.Errorf("%s wall clock %.1f s exceeds the %.0f s budget",
				name, got.NsPerOp/1e9, budget/1e9)
		}
		fmt.Printf("perf: %s at %.1f s (budget %.0f s)\n", name, got.NsPerOp/1e9, budget/1e9)
	}
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perf: "+format+"\n", args...)
	os.Exit(1)
}
