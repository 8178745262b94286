// Command dpssbench is SmartDPSS's end-to-end benchmark. It runs one of
// four workloads — the paper-reproduction suite, the streaming ingest
// path, the clairvoyant month plans of one site and of a coupled fleet,
// and the online geo fleet with its greedy router — for a fixed number of
// seconds, checks every output, and prints each end-to-end metric by name
// with its unit and sample count. With -trace 1 it records spans around each call into a
// layer and prints the per-layer metrics instead.
//
// Run from the repository root:
//
//	bash bench/run.sh -workload all -seed 1
//	bash bench/run.sh -workload stream -seed 7 -seconds 30 -trace 1
//	bash bench/run.sh -workload geo -runs 5
//
// The last line of a single-workload run is one JSON object with the keys
// correct, attempted, failed and metrics. The process exits non-zero when
// any check fails.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// procs pins the load: one process, two threads. Pool widths and the geo
// stepper use the same number, so runs compare across machines with more
// cores.
const procs = 2

// runOpts are the parameters every workload receives.
type runOpts struct {
	seed    int64
	seconds float64
	trace   bool
	small   bool   // minimum sizes, for the smoke test
	root    string // repository root, for the golden paper tables
	refs    refTable
}

// metric is one printed number. n is the sample count behind it (0 when
// it is not a sample statistic).
type metric struct {
	name  string
	unit  string
	value float64
	n     int
}

// result is what one workload run reports.
type result struct {
	attempted, failed int
	metrics           []metric
	notes             []string // extra human-readable lines
	firstErr          error
}

// workload is one named benchmark input.
type workload struct {
	name string
	run  func(o runOpts, tr *tracer) (*result, error)
}

var workloads = []workload{
	{"suite", runSuiteWorkload},
	{"stream", runStreamWorkload},
	{"horizon", runHorizonWorkload},
	{"geo", runGeoWorkload},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dpssbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: suite, stream, horizon, geo, or all")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 30, "how long one run measures")
	traceFlag := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
	spansPath := fs.String("spans", "", "with -trace 1, write the recorded spans to this JSON file")
	runs := fs.Int("runs", 1, "run each workload this many times, on seeds seed, seed+1, ..., and print every metric's spread")
	root := fs.String("root", ".", "repository root (the golden paper tables are read from it)")
	small := fs.Bool("small", false, "run at the minimum workload sizes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "dpssbench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "dpssbench: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 || *runs < 1 {
		fmt.Fprintln(stderr, "dpssbench: -seconds and -runs must be positive")
		return 2
	}
	var names []string
	if *name == "all" {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if _, ok := lookupWorkload(*name); ok {
		names = []string{*name}
	} else {
		fmt.Fprintf(stderr, "dpssbench: unknown workload %q\n", *name)
		return 2
	}
	runtime.GOMAXPROCS(procs)
	o := runOpts{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, small: *small, root: *root}

	if len(names) == 1 && *runs == 1 {
		refs, err := loadRefs()
		if err != nil {
			fmt.Fprintf(stderr, "dpssbench: %v\n", err)
			return 1
		}
		o.refs = refs
		return runOne(names[0], o, *spansPath, stdout, stderr)
	}
	return runChildren(names, o, *runs, *spansPath, stdout, stderr)
}

// runOne runs one workload in this process and prints its result.
func runOne(name string, o runOpts, spansPath string, stdout, stderr io.Writer) int {
	w, _ := lookupWorkload(name)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	fmt.Fprintf(stdout, "# workload=%s seed=%d seconds=%g trace=%t nproc=%d gomaxprocs=%d go=%s\n",
		name, o.seed, o.seconds, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	res, err := w.run(o, tr)
	if err != nil {
		fmt.Fprintf(stderr, "dpssbench: %s: %v\n", name, err)
		return 1
	}
	if res.firstErr != nil {
		fmt.Fprintf(stderr, "dpssbench: %s: first failure: %v\n", name, res.firstErr)
	}
	declared := endToEndMetrics
	if o.trace {
		declared = perLayerMetrics
	}
	got, err := complete(res.metrics, declared, o.trace)
	if err != nil {
		fmt.Fprintf(stderr, "dpssbench: %s: %v\n", name, err)
		return 1
	}
	if tr != nil && spansPath != "" {
		if err := tr.write(spansPath); err != nil {
			fmt.Fprintf(stderr, "dpssbench: %v\n", err)
			return 1
		}
	}
	for _, m := range got {
		n := ""
		if m.n > 0 {
			n = fmt.Sprintf("n=%d", m.n)
		}
		fmt.Fprintf(stdout, "%-40s %16.6g %-6s %s\n", m.name, m.value, m.unit, n)
	}
	for _, line := range res.notes {
		fmt.Fprintf(stdout, "# %s\n", line)
	}
	correct := res.failed == 0 && res.attempted > 0
	line, err := resultLine(correct, res.attempted, res.failed, got)
	if err != nil {
		fmt.Fprintf(stderr, "dpssbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if !correct {
		return 1
	}
	return 0
}

// complete orders the workload's metrics as declared. A declared
// per-layer metric the workload never touches reads 0 (its layer is
// bypassed); an end-to-end metric must always be present, and an
// undeclared one is a bug.
func complete(ms []metric, declared []metricDecl, perLayer bool) ([]metric, error) {
	byName := make(map[string]metric, len(ms))
	for _, m := range ms {
		byName[m.name] = m
	}
	out := make([]metric, 0, len(declared))
	for _, d := range declared {
		m, ok := byName[d.name]
		if !ok {
			if !perLayer {
				return nil, fmt.Errorf("end-to-end metric %s was not measured", d.name)
			}
			m = metric{name: d.name}
		}
		if m.unit != "" && m.unit != d.unit {
			return nil, fmt.Errorf("metric %s measured in %s, declared in %s", d.name, m.unit, d.unit)
		}
		m.unit = d.unit
		out = append(out, m)
		delete(byName, d.name)
	}
	for n := range byName {
		return nil, fmt.Errorf("metric %s is not declared", n)
	}
	return out, nil
}

// resultLine renders the final JSON object of a run.
func resultLine(correct bool, attempted, failed int, ms []metric) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := make(map[string]value, len(ms))
	for _, m := range ms {
		vals[m.name] = value{m.value, m.unit}
	}
	data, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, vals})
	if err != nil {
		return "", fmt.Errorf("encode result: %w", err)
	}
	return string(data), nil
}

// childResult is a parsed final line.
type childResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runChildren runs each workload in its own child process — so peak RSS
// and GC state belong to one workload — runs times each, one after the
// other, and prints a summary.
func runChildren(names []string, o runOpts, runs int, spansPath string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "dpssbench: %v\n", err)
		return 1
	}
	traceArg := "0"
	if o.trace {
		traceArg = "1"
	}
	fmt.Fprintf(stdout, "# nproc=%d gomaxprocs=%d go=%s runs=%d seconds=%g\n",
		runtime.NumCPU(), procs, runtime.Version(), runs, o.seconds)
	status := 0
	results := make(map[string][]childResult)
	for _, name := range names {
		for r := 0; r < runs; r++ {
			seed := o.seed + int64(r)
			args := []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", traceArg, "-root", o.root}
			if o.small {
				args = append(args, "-small")
			}
			if spansPath != "" && o.trace {
				args = append(args, "-spans", fmt.Sprintf("%s.%s.%d.json", strings.TrimSuffix(spansPath, ".json"), name, seed))
			}
			cmd := exec.Command(exe, args...)
			var out bytes.Buffer
			cmd.Stdout = &out
			cmd.Stderr = stderr
			runErr := cmd.Run()
			if runs == 1 {
				stdout.Write(out.Bytes())
			}
			res, perr := lastResult(out.Bytes())
			switch {
			case perr != nil:
				fmt.Fprintf(stderr, "dpssbench: %s seed %d: %v (exit: %v)\n", name, seed, perr, runErr)
				status = 1
				continue
			case runErr != nil || !res.Correct:
				fmt.Fprintf(stderr, "dpssbench: %s seed %d: %d of %d ops failed (exit: %v)\n",
					name, seed, res.Failed, res.Attempted, runErr)
				status = 1
			}
			results[name] = append(results[name], res)
		}
	}
	declared := endToEndMetrics
	if o.trace {
		declared = perLayerMetrics
	}
	printSummary(stdout, names, declared, results, runs)
	return status
}

// lastResult parses the JSON object on the last non-empty line.
func lastResult(out []byte) (childResult, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res childResult
	if last == "" {
		return res, errors.New("no result line")
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("parse result line: %w", err)
	}
	return res, nil
}

// printSummary prints one row per workload and metric: the value for a
// single run, or the median, interquartile range and max/min spread over
// several.
func printSummary(w io.Writer, names []string, declared []metricDecl, results map[string][]childResult, runs int) {
	if runs == 1 {
		fmt.Fprintf(w, "\n%-8s %-40s %16s %s\n", "workload", "metric", "value", "unit")
	} else {
		fmt.Fprintf(w, "\n%-8s %-40s %14s %10s %10s %s\n", "workload", "metric", "median", "iqr/med", "max/min-1", "unit")
	}
	for _, name := range names {
		rs := results[name]
		if len(rs) == 0 {
			continue
		}
		for _, d := range declared {
			vals := make([]float64, 0, len(rs))
			for _, r := range rs {
				if m, ok := r.Metrics[d.name]; ok {
					vals = append(vals, m.Value)
				}
			}
			if len(vals) == 0 {
				continue
			}
			if runs == 1 {
				fmt.Fprintf(w, "%-8s %-40s %16.6g %s\n", name, d.name, vals[0], d.unit)
				continue
			}
			med := median(vals)
			q1, q3 := quartiles(vals)
			fmt.Fprintf(w, "%-8s %-40s %14.6g %9.2f%% %9.2f%% %s\n",
				name, d.name, med, 100*ratio(q3-q1, med), 100*spread(vals), d.unit)
		}
	}
}
