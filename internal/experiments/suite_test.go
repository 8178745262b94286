package experiments

import (
	"bytes"
	"testing"

	dpss "github.com/smartdpss/smartdpss/internal/engine"
	"github.com/smartdpss/smartdpss/internal/suite"
)

// TestScenariosRegistered: every runner in this package must be in the
// registry, paper figures first.
func TestScenariosRegistered(t *testing.T) {
	want := []string{"fig5", "fig6v", "fig6t", "fig7", "fig8", "fig9", "fig10",
		"ext-peak", "ext-cycle", "ext-mix", "ext-est", "ext-mpc", "ext-seeds", "ext-cool",
		"prov-grid", "prov-fuel", "prov-vt",
		"fleet-mix", "fleet-uc", "fleet-co2"}
	var got []string
	for _, s := range suite.Scenarios() {
		if s.HasTag(TagPaper) || s.HasTag(TagExt) || s.HasTag(TagProvision) || s.HasTag(TagFleet) {
			got = append(got, s.Name)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("registered = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registered[%d] = %q, want %q (order matters)", i, got[i], want[i])
		}
	}
	paper, err := suite.Select(TagPaper)
	if err != nil {
		t.Fatal(err)
	}
	if len(paper) != 7 {
		t.Fatalf("paper scenarios = %d, want 7", len(paper))
	}
	prov, err := suite.Select(TagProvision)
	if err != nil {
		t.Fatal(err)
	}
	if len(prov) != 3 {
		t.Fatalf("provision scenarios = %d, want 3", len(prov))
	}
	fleet, err := suite.Select(TagFleet)
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet) != 3 {
		t.Fatalf("fleet scenarios = %d, want 3", len(fleet))
	}
	geoScen, err := suite.Select(TagGeo)
	if err != nil {
		t.Fatal(err)
	}
	wantGeo := []string{"geo-div", "geo-scale", "geo-lat"}
	if len(geoScen) != len(wantGeo) {
		t.Fatalf("geo scenarios = %d, want %d", len(geoScen), len(wantGeo))
	}
	for i := range wantGeo {
		if geoScen[i].Name != wantGeo[i] {
			t.Fatalf("geo[%d] = %q, want %q (order matters)", i, geoScen[i].Name, wantGeo[i])
		}
	}
	tuneScen, err := suite.Select(TagTune)
	if err != nil {
		t.Fatal(err)
	}
	wantTune := []string{"tune-gap", "tune-xfer", "tune-frontier"}
	if len(tuneScen) != len(wantTune) {
		t.Fatalf("tune scenarios = %d, want %d", len(tuneScen), len(wantTune))
	}
	for i := range wantTune {
		if tuneScen[i].Name != wantTune[i] {
			t.Fatalf("tune[%d] = %q, want %q (order matters)", i, tuneScen[i].Name, wantTune[i])
		}
	}
}

// renderSuite runs every registered experiment scenario — the paper
// figures, the extensions, the provisioning family, the fleet family,
// the geo family and the tune family — and renders all tables into one
// byte stream.
func renderSuite(t *testing.T, cfg Config) []byte {
	t.Helper()
	tables, err := suite.RunSuite(cfg, TagPaper, TagExt, TagProvision, TagFleet, TagGeo, TagTune)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, tbl := range tables {
		if err := tbl.Fprint(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestSuiteParallelDeterminism is the tentpole invariant: the full suite
// at -parallel 1 and -parallel 8 must produce byte-identical tables at a
// fixed seed.
func TestSuiteParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite twice in -short mode")
	}
	cfg := Config{Days: 7, Seed: 1, SkipOffline: true, Seeds: 3, Parallel: 1}
	sequential := renderSuite(t, cfg)
	if len(sequential) == 0 {
		t.Fatal("no output")
	}
	cfg.Parallel = 8
	parallel := renderSuite(t, cfg)
	if !bytes.Equal(sequential, parallel) {
		t.Fatalf("suite output differs between -parallel 1 and -parallel 8:\n--- parallel=1 ---\n%s\n--- parallel=8 ---\n%s",
			sequential, parallel)
	}
}

// TestSuiteMatchesDirectRunners: a scenario run through the registry and
// pool must equal the direct function call (the pre-suite code path).
func TestSuiteMatchesDirectRunners(t *testing.T) {
	cfg := Config{Days: 7, Seed: 1, SkipOffline: true, Parallel: 4}
	direct, err := Fig7Factors(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := suite.RunSuite(cfg, "fig7")
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := direct.Fprint(&a); err != nil {
		t.Fatal(err)
	}
	if err := tables[0].Fprint(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("registry run differs from direct call:\n%s\nvs\n%s", a.String(), b.String())
	}
}

// TestSuiteSearchesEachTuneArmOnce: within one run the tune family
// searches each policy arm once and TUNE-2 and TUNE-3 reuse TUNE-1's
// searches. Every objective evaluation requests one trace set per seed,
// so the run's trace requests are exactly the two searches' evaluations
// per seed, plus TUNE-2's held-out seeds in three price regimes and
// TUNE-3's base trace.
func TestSuiteSearchesEachTuneArmOnce(t *testing.T) {
	cfg := Config{Days: 2, Seed: 1, SkipOffline: true, Seeds: 2, Parallel: 2}
	evals := 0
	for _, policy := range []dpss.Policy{dpss.PolicySmartDPSS, dpss.PolicyLyapunov} {
		res, err := RunTune(TuneOptions{Policy: policy, Base: dpss.DefaultOptions(), Suite: cfg, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		evals += res.Evals
	}
	suite.ResetTraceCache()
	if _, err := suite.RunSuite(cfg, TagTune); err != nil {
		t.Fatal(err)
	}
	hits, misses := suite.TraceCacheStats()
	s := cfg.SeedCount()
	if got, want := hits+misses, int64(evals*s+3*s+1); got != want {
		t.Fatalf("tune family made %d trace requests, want %d: (%d evals)·%d seeds + 3·%d + 1",
			got, want, evals, s, s)
	}
}

// TestSharedResultsMatchOwnRuns: a scenario that reads a result shared
// within a run — the tune family's searches, the base month's
// OfflineOptimal replay in fig6v, ext-mpc and ext-seeds — prints the
// same table as when it runs alone and computes that result itself.
func TestSharedResultsMatchOwnRuns(t *testing.T) {
	render := func(tbl *Table) string {
		var buf bytes.Buffer
		if err := tbl.Fprint(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	for _, parallel := range []int{1, 8} {
		cfg := Config{Days: 2, Seed: 1, Seeds: 2, Parallel: parallel}
		for _, selectors := range [][]string{{TagTune}, {"fig6v", "ext-mpc", "ext-seeds"}} {
			scns, err := suite.Select(selectors...)
			if err != nil {
				t.Fatal(err)
			}
			together, err := suite.RunSuite(cfg, selectors...)
			if err != nil {
				t.Fatal(err)
			}
			for i, sc := range scns {
				alone, err := suite.RunSuite(cfg, sc.Name)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := render(together[i]), render(alone[0]); got != want {
					t.Errorf("parallel=%d: %s run with %v differs from its own run:\n%s\nvs\n%s",
						parallel, sc.Name, selectors, got, want)
				}
			}
		}
	}
}
