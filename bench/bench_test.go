package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/smartdpss/smartdpss/internal/experiments"
	"github.com/smartdpss/smartdpss/internal/suite"
)

var update = flag.Bool("update", false, "rewrite references.json")

// benchmarkJSON is the part of ../BENCHMARK.json the tests read.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestDeclarationsMatchBenchmarkJSON: the metrics the program prints are
// exactly those BENCHMARK.json declares, with the same units, and so are
// the workloads.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if strings.Join(names, ",") != strings.Join(ours, ",") {
		t.Errorf("workloads %v, BENCHMARK.json declares %v", ours, names)
	}
	check := func(kind string, decl []metricDecl, declared []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(decl) != len(declared) {
			t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", kind, len(decl), len(declared))
			return
		}
		for i, d := range decl {
			if d.name != declared[i].Name || d.unit != declared[i].Unit {
				t.Errorf("%s[%d] = %s (%s), BENCHMARK.json has %s (%s)",
					kind, i, d.name, d.unit, declared[i].Name, declared[i].Unit)
			}
		}
	}
	check("end_to_end", endToEndMetrics, b.EndToEnd)
	check("per_layer", perLayerMetrics, b.PerLayer)
}

// TestSmoke runs every workload at its minimum size — one scenario at 2
// days, 4 tenants × 2 days, a 7-day horizon, 2 geo sites × 2 days with
// either router — with and without tracing, and checks the printed
// metrics.
func TestSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, trace := range []string{"0", "1"} {
		want := make(map[string]bool)
		if trace == "0" {
			for _, m := range b.EndToEnd {
				want[m.Name] = true
			}
		} else {
			for _, m := range b.PerLayer {
				want[m.Name] = true
			}
		}
		for _, w := range workloads {
			t.Run(w.name+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"-workload", w.name, "-seed", "1", "-seconds", "0.2", "-trace", trace, "-small", "-root", ".."}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				for _, line := range lines[:len(lines)-1] {
					if strings.HasPrefix(line, "#") {
						continue
					}
					name := strings.Fields(line)[0]
					if !metricName.MatchString(name) || !want[name] {
						t.Errorf("printed metric %q is not declared in BENCHMARK.json", name)
					}
				}
				res, err := lastResult(stdout.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("result: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(want))
				}
				for name := range res.Metrics {
					if !want[name] {
						t.Errorf("result metric %q is not declared", name)
					}
				}
			})
		}
	}
}

// TestPerturbedReferenceFails: a reference value off by more than the
// tolerance makes the correctness check fail.
func TestPerturbedReferenceFails(t *testing.T) {
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		key string
		run func(runOpts, *tracer) (*result, error)
	}{
		{"horizon.stair.small.1", runHorizonWorkload},
		{"horizon.coupled.small.1", runHorizonWorkload},
		{"geo.greedy.small.1", runGeoWorkload},
	} {
		if len(refs[c.key]) == 0 {
			t.Fatalf("no reference under %s", c.key)
		}
		perturbed := refTable{}
		for k, v := range refs {
			perturbed[k] = append([]float64(nil), v...)
		}
		perturbed[c.key][0] *= 1 + 2*relTolerance
		o := runOpts{seed: 1, seconds: 0.1, small: true, refs: perturbed}
		res, err := c.run(o, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.failed == 0 {
			t.Errorf("%s: perturbed reference passed the check", c.key)
		}
	}
}

// TestGoldenCheck: the suite's golden comparison accepts the committed
// tables and rejects a table with one changed byte.
func TestGoldenCheck(t *testing.T) {
	scns, err := suite.Select(experiments.TagPaper)
	if err != nil {
		t.Fatal(err)
	}
	var all []byte
	for _, sc := range scns {
		data, err := os.ReadFile(filepath.Join("..", "internal", "experiments", "testdata", "golden", sc.Name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, data...)
	}
	if err := checkGolden("..", scns, all); err != nil {
		t.Errorf("golden tables rejected: %v", err)
	}
	i := bytes.IndexByte(all, '.')
	all[i+1] ^= 1
	if err := checkGolden("..", scns, all); err == nil {
		t.Error("a changed table passed the golden check")
	}
}

// TestTailPercentile: the highest percentile with at least ten samples
// beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// TestQuartiles matches Python's statistics.quantiles(range(1, 11), n=4)
// and statistics.quantiles([1, 2, 4, 8], n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2, 4, 8}, 1.25, 7},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestReferences recomputes the references at seed 1. With -update it
// rewrites references.json (full sizes included, a few seconds more).
func TestReferences(t *testing.T) {
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	small, err := computeRefs(true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !*update {
		for key, want := range small {
			got := refs[key]
			if len(got) != len(want) {
				t.Errorf("%s: %d references, recomputed %d", key, len(got), len(want))
				continue
			}
			for k := range want {
				if got[k] != want[k] {
					t.Errorf("%s[%d] = %.17g, recomputed %.17g", key, k, got[k], want[k])
				}
			}
		}
		return
	}
	full, err := computeRefs(false, 1)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range full {
		small[k] = v
	}
	data, err := json.MarshalIndent(small, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("references.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
