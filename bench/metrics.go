package main

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDecl names one metric and its unit. BENCHMARK.json declares the
// same lists with their direction and regression bound.
type metricDecl struct{ name, unit string }

// endToEndMetrics are printed by every untraced run. "op" is the
// workload's unit of work: one suite run, one day of ticks of every
// tenant, one month plan, one geo fleet run. Percentiles of the
// operation time are not among them: on a shared host the program runs
// in fast and slow spells, and a percentile follows whichever spell held
// its share of the operations (see README.md), so they are per-layer
// metrics.
var endToEndMetrics = []metricDecl{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// streamArmNames are the stream workload's policy arms, in tenant order.
var streamArmNames = []string{"smartdpss-fleet", "smartdpss", "lyapunov", "impatient"}

// perLayerMetrics are printed by every traced run. A workload that
// bypasses a layer reports 0 for that layer's metrics.
var perLayerMetrics = func() []metricDecl {
	ms := []metricDecl{
		{"op_ms_p50", "ms"},
		{"op_ms_p90", "ms"},
		{"engine.generate_traces_ms", "ms"},
		{"runtime.alloc_mb_per_op", "MB"},
		{"runtime.gc_cycles_per_op", "count"},
		{"trace.overhead_pct", "%"},

		{"suite.trace_cache_hits", "count"},
		{"suite.trace_cache_misses", "count"},
		{"suite.pool_busy_pct", "%"},
		{"suite.straggler_s", "s"},
		{"experiments.fig6v_s", "s"},
		{"experiments.ext-mpc_s", "s"},
		{"experiments.ext-seeds_s", "s"},
		{"experiments.tune_s", "s"},
		{"experiments.other_s", "s"},

		{"engine.new_session_us", "us"},
	}
	for _, q := range []string{"p50", "p99"} {
		for _, arm := range streamArmNames {
			ms = append(ms, metricDecl{"session.step_ns_" + q + "." + arm, "ns"})
		}
	}
	return append(ms,
		metricDecl{"session.commit_ns_p50", "ns"},
		metricDecl{"session.commit_ns_p99", "ns"},
		metricDecl{"sim.snapshot_us_p50", "us"},
		metricDecl{"sim.snapshot_us_p99", "us"},
		metricDecl{"sim.snapshot_bytes", "bytes"},
		metricDecl{"sim.snapshot_alloc_kb", "KB"},
		metricDecl{"serve.scrape_us_p50", "us"},
		metricDecl{"serve.scrape_bytes", "bytes"},
		metricDecl{"serve.scrape_alloc_kb", "KB"},
		metricDecl{"sim.restore_us_p50", "us"},
		metricDecl{"sim.restore_us_p99", "us"},

		metricDecl{"engine.new_replay_session_s", "s"},
		metricDecl{"engine.replay_s", "s"},
		metricDecl{"engine.new_replay_session_alloc_mb", "MB"},
		metricDecl{"geo.run_lp_s", "s"},
		metricDecl{"baseline.geo_lp_s", "s"},
		metricDecl{"geo.lp_replay_s", "s"},

		metricDecl{"geo.run_greedy_ms", "ms"},
		metricDecl{"geo.run_none_ms", "ms"},
		metricDecl{"geo.trace_gen_ms", "ms"},
	)
}()

// subSeed derives the seed of a workload's k-th input. Input 0 uses the
// run's seed itself, so seed 1 meets the golden tables and references.
func subSeed(seed int64, k int) int64 { return seed + int64(k)*1_000_003 }

// A workload builds its inputs at least minSetupReps times, and more
// while the builds total under minSetupSecs. The set-up time is the mean
// build: over a second the builds cover several of the host's fast and
// slow spells, where a median of builds taken within one spell jumped by
// up to 1.7× between runs. Between builds the calibration kernel runs for
// setupCalShare of the build time, at least setupCalMinRuns times, and
// set-up is scaled by the kernel's mean over those runs: by the host's
// speed while it was set up, not while the operations ran.
const (
	minSetupReps    = 3
	minSetupSecs    = 1.0
	setupCalShare   = 0.5
	setupCalMinRuns = 5
)

// setupTime is a workload's set-up: the mean build time and the
// calibration kernel's mean time over the runs between the builds.
type setupTime struct {
	secs, cal float64
	n         int
}

// scaled returns the mean build time in seconds of the reference machine.
func (st setupTime) scaled() float64 { return st.secs * calScale(st.cal) }

// timeSetup builds the inputs repeatedly (once at the smoke test's sizes),
// interleaved with the calibration kernel, and returns the last inputs and
// the set-up time. Builds of more than 10 ms, and the first build after a
// kernel run, are each preceded by a collection, so none pays for its
// predecessor's garbage; shorter ones are not, as a collection would leave
// each of them running on cold caches.
func timeSetup[T any](o runOpts, build func() (T, error)) (T, setupTime, error) {
	var last T
	var secs, cal []float64
	minReps, minSecs, minCal := minSetupReps, minSetupSecs, setupCalMinRuns
	if o.small {
		minReps, minSecs, minCal = 1, 0, 1
	}
	calOwed := 0.0
	runtime.GC()
	for total := 0.0; len(secs) < minReps || total < minSecs; {
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return last, setupTime{}, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0).Seconds()
		secs = append(secs, d)
		total += d
		last = v
		if d > 0.01 {
			runtime.GC()
		}
		// The kernel runs after the previous inputs are collected, so its
		// maps do not stack on them and raise the peak RSS.
		if calOwed += setupCalShare * d; calOwed > 0 {
			for calOwed > 0 {
				t := calibrate()
				cal = append(cal, t)
				calOwed -= t
			}
			runtime.GC()
		}
	}
	for len(cal) < minCal {
		cal = append(cal, calibrate())
	}
	return last, setupTime{secs: mean(secs), cal: mean(cal), n: len(secs)}, nil
}

// opCtx places a layer span under the operation that issued the call.
// The zero value records nothing.
type opCtx struct {
	tr         *tracer
	op, parent int32
}

func (c opCtx) begin(name string) int32 { return c.tr.begin(name, c.parent, c.op) }
func (c opCtx) end(id int32)            { c.tr.end(id) }

// sampler issues a workload's operations in a closed loop — one caller,
// each operation waits for the previous — until the run's time is up,
// and times each one. Between operations it runs the calibration kernel
// for a tenth of the operation time. In a traced run operations are
// traced two on, two off while the tracer has room; the untraced ones
// give the tracing overhead.
type sampler struct {
	o      runOpts
	tr     *tracer
	start  time.Time
	lat    []float64 // seconds per operation
	traced []bool
	kind   []int     // kind of each operation, 0 unless the workload mixes kinds
	items  []float64 // units of work per operation
	mix    []float64 // operations of each kind in the mix throughput is reported for; nil for one kind
	failed int
	first  error

	cal     []float64 // seconds per calibration kernel run
	calOwed float64   // calibration seconds due

	mem0, mem1 runtime.MemStats
	stopped    bool
	// asideAlloc and asideGC count the allocations and collections of
	// work done between operations, which per-operation counts exclude.
	asideAlloc uint64
	asideGC    uint32
}

func newSampler(o runOpts, tr *tracer) *sampler {
	s := &sampler{o: o, tr: tr}
	runtime.GC()
	runtime.ReadMemStats(&s.mem0)
	s.start = time.Now()
	return s
}

// more reports whether the run's measuring time is not yet used up.
func (s *sampler) more() bool { return time.Since(s.start).Seconds() < s.o.seconds }

// do times one operation worth items units of work.
func (s *sampler) do(items float64, op func(c opCtx) error) { s.doKind(0, items, op) }

// doKind times one operation of the given kind.
func (s *sampler) doKind(kind int, items float64, op func(c opCtx) error) {
	i := int32(len(s.lat))
	c := opCtx{op: i, parent: -1}
	if i%4 < 2 && s.tr.canRecord() {
		c.tr = s.tr
	}
	t0 := time.Now()
	c.parent = c.tr.begin("op", -1, i)
	err := op(c)
	c.tr.end(c.parent)
	d := time.Since(t0).Seconds()
	s.lat = append(s.lat, d)
	s.traced = append(s.traced, c.tr != nil)
	s.kind = append(s.kind, kind)
	s.items = append(s.items, items)
	if err != nil {
		s.fail(fmt.Errorf("op %d: %w", i, err))
	}
	if s.calOwed += calShare * d; s.calOwed > 0 {
		s.aside(func() {
			for s.calOwed > 0 {
				t := calibrate()
				s.cal = append(s.cal, t)
				s.calOwed -= t
			}
		})
	}
}

// The calibration kernel sorts calLen pseudo-random floats, the same ones
// every time — 2 MB of branchy work in the core's own cache — and then
// builds calMaps fresh hash maps of calMapInserts pseudo-random keys —
// allocation, hashing and scattered access over a few MB, like much of
// the program's. It runs none of the program's code, so a change to the
// program leaves it alone. On a shared host the program's speed drifts
// with its neighbours' load, by 10–35 % between runs a minute apart and
// up to 1.8× between spells within a run; the kernel, run between the
// operations of the same run, drifts with it. Either half alone tracked
// the program less well than the two together (see README.md).
//
// Time metrics are reported scaled by calScale of the kernel's mean time
// in the run: in seconds of the reference machine, on which the kernel
// took calRefSecs at its fastest. The mean, not the median, because the
// host's slow spells come and go within a run and the mean counts the
// share of the run they cover, as the operations' mean time does.
//
// The program slows by more than the kernel when the host is busy: it
// keeps both cores busy (pool width 2, or the collector beside one
// goroutine) and works over more memory. Over 52 or 53 30 s runs of each
// workload, the unscaled throughput went as the kernel's time to the
// power −1.10 to −1.21, alike on every workload, so time is scaled by
// calRefSecs over the kernel's mean to the power calExponent.
const (
	calLen        = 1 << 18
	calMaps       = 3
	calMapInserts = 1 << 17
	calMapKeys    = 1 << 18
	calShare      = 0.1
	calMinRuns    = 11
	calRefSecs    = 0.060
	calExponent   = 1.15
	calSeedBits   = 0x9E3779B97F4A7C15
)

// calScale is the factor that turns seconds measured while the kernel
// took calSecs into seconds of the reference machine.
func calScale(calSecs float64) float64 { return math.Pow(calRefSecs/calSecs, calExponent) }

var (
	calBuf  = make([]float64, calLen)
	calSink int
)

// calibrate runs the calibration kernel once and returns its time in
// seconds.
func calibrate() float64 {
	t0 := time.Now()
	x := uint64(calSeedBits)
	for i := range calBuf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		calBuf[i] = float64(x >> 11)
	}
	sort.Float64s(calBuf)
	for range calMaps {
		m := make(map[uint64]uint64)
		for i := range calMapInserts {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			m[x%calMapKeys] += uint64(i)
		}
		calSink += len(m)
	}
	return time.Since(t0).Seconds()
}

// aside runs f between operations and keeps its allocations out of the
// per-operation counts.
func (s *sampler) aside(f func()) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	s.asideAlloc += b.TotalAlloc - a.TotalAlloc
	s.asideGC += b.NumGC - a.NumGC
}

// stop ends the measured loop: allocation counts stop here, before any
// verification or probe work, and the calibration kernel runs until it
// has calMinRuns samples (one at the smoke test's sizes).
func (s *sampler) stop() {
	if !s.stopped {
		runtime.ReadMemStats(&s.mem1)
		s.stopped = true
		need := calMinRuns
		if s.o.small {
			need = 1
		}
		for len(s.cal) < need {
			s.cal = append(s.cal, calibrate())
		}
	}
}

// timed runs f inside a root span called name and returns its wall time
// in seconds.
func timed(tr *tracer, name string, f func() error) (float64, error) {
	id := tr.begin(name, -1, -1)
	t0 := time.Now()
	err := f()
	secs := time.Since(t0).Seconds()
	tr.end(id)
	return secs, err
}

// fail counts one failed operation or check.
func (s *sampler) fail(err error) {
	s.failed++
	if s.first == nil {
		s.first = err
	}
}

// result builds the run's metrics: the end-to-end ones, or in a traced
// run the common per-layer ones (workloads add their own).
func (s *sampler) result(st setupTime) (*result, error) {
	s.stop()
	mem := s.mem1
	n := len(s.lat)
	res := &result{attempted: n, failed: s.failed, firstErr: s.first}
	if res.failed > n {
		res.failed = n
	}
	if n == 0 {
		return res, errors.New("no operation completed")
	}
	calSecs := mean(s.cal)
	scale := calScale(calSecs)
	if s.tr != nil {
		// Compare the traced operations with the untraced ones issued
		// among them, not with those after the tracer filled up.
		last := 0
		for i, t := range s.traced {
			if t {
				last = i
			}
		}
		var on, off []float64
		for i, l := range s.lat[:last+1] {
			if s.traced[i] {
				on = append(on, l)
			} else {
				off = append(off, l)
			}
		}
		res.metrics = append(res.metrics,
			metric{"op_ms_p50", "ms", scale * 1e3 * median(off), len(off)},
			metric{"op_ms_p90", "ms", scale * 1e3 * percentile(off, 90), len(off)},
			metric{"runtime.alloc_mb_per_op", "MB", float64(mem.TotalAlloc-s.mem0.TotalAlloc-s.asideAlloc) / float64(n) / (1 << 20), n},
			metric{"runtime.gc_cycles_per_op", "count", float64(mem.NumGC-s.mem0.NumGC-s.asideGC) / float64(n), n},
		)
		if len(off) > 0 {
			res.metrics = append(res.metrics, metric{"trace.overhead_pct", "%", 100 * (median(on)/median(off) - 1), len(on)})
		}
		if gen := selfTimes(s.tr.closed(), "engine.generate_traces"); len(gen) > 0 {
			res.metrics = append(res.metrics, metric{"engine.generate_traces_ms", "ms", median(gen) / 1e6, len(gen)})
		}
		return res, nil
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	tput := s.throughput()
	p50, p90 := 1e3*percentile(s.lat, 50), 1e3*percentile(s.lat, 90)
	res.metrics = append(res.metrics,
		metric{"setup_s", "s", st.scaled(), st.n},
		metric{"throughput_per_s", "1/s", tput / scale, n},
		metric{"peak_rss_mb", "MB", rss, 0},
	)
	tail := tailPercentile(n)
	res.notes = append(res.notes,
		fmt.Sprintf("calibration: kernel mean %.6g ms over %d runs (reference %.6g ms), time metrics scaled by %.4f; during set-up %.6g ms",
			1e3*calSecs, len(s.cal), 1e3*calRefSecs, scale, 1e3*st.cal),
		fmt.Sprintf("scaled: op_ms_p50=%.6g op_ms_p90=%.6g, op_ms tail p%g=%.6g (n=%d, %d beyond)",
			scale*p50, scale*p90, tail, scale*1e3*percentile(s.lat, tail), n, int(float64(n)*(1-tail/100))),
		fmt.Sprintf("unscaled: setup_s=%.6g throughput_per_s=%.6g op_ms_p50=%.6g op_ms_p90=%.6g",
			st.secs, tput, p50, p90))
	return res, nil
}

// throughput returns the units of work per second of operation time,
// unscaled. A workload that mixes kinds of operation reports it for a
// fixed mix, s.mix[k] operations of kind k each taking its kind's mean
// time, so that the mix does not depend on where the run's time ran out.
func (s *sampler) throughput() float64 {
	mix := s.mix
	if mix == nil {
		mix = []float64{1}
	}
	var items, secs float64
	for k, w := range mix {
		var n, it, sec float64
		for i, kind := range s.kind {
			if kind == k {
				n++
				it += s.items[i]
				sec += s.lat[i]
			}
		}
		if n > 0 {
			items += w * it / n
			secs += w * sec / n
		}
	}
	return ratio(items, secs)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// tailPercentiles is the ladder tailPercentile picks from.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile of the ladder that has at
// least ten of n samples beyond it (the median when none has).
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 100-p is inexact for 99.9
			return p
		}
	}
	return 50
}

// percentile interpolates linearly between the closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// quartiles returns the first and third quartile by the exclusive method
// of Python's statistics.quantiles(xs, n=4), so spreads printed here
// match that tool's.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is max/min − 1.
func spread(xs []float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return ratio(hi, lo) - 1
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
