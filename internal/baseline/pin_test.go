package baseline

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// update regenerates the staircase LP pin instead of diffing against it:
//
//	go test ./internal/baseline -run TestStaircasePlansPinned -update
//
// Regenerate ONLY when a plan change is intended and reviewed: the pin
// exists so that refactors of the staircase builders reproduce these
// bytes.
var update = flag.Bool("update", false, "rewrite testdata/golden snapshots")

// TestStaircasePlansPinned pins the exact optimal vertex of both
// staircase LPs bit for bit: OfflineHorizon without and with a fleet,
// and a three-site SolveGeoHorizon whose routing cap binds (so the cap
// row is built). Every value is printed in shortest round-trip form, so
// any change of the model's variable or row order that moves the vertex
// shows here even when the objective stays within tolerance.
func TestStaircasePlansPinned(t *testing.T) {
	var buf bytes.Buffer
	set := testTraces(t, 2)
	for _, fleet := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.T = 12
		name := "horizon"
		if fleet {
			cfg.Fleet = testFleet()
			name = "horizon-fleet"
		}
		o, err := NewOfflineHorizon(cfg, set)
		if err != nil {
			t.Fatal(err)
		}
		writeHorizonPin(&buf, name, o)
	}

	cfg := DefaultConfig()
	cfg.T = 12
	sets := geoTestSets(t, 2, []float64{0.6, 1.0, 1.6})
	capMWh := 0.0
	for i := 0; i < sets[0].Horizon(); i++ {
		capMWh = math.Max(capMWh, sets[0].DemandDS.At(i))
	}
	capMWh *= 1.1
	sites := make([]GeoSite, len(sets))
	for s, set := range sets {
		sites[s] = GeoSite{Config: cfg, Set: set, ImportPenaltyUSD: 1, RouteCapMWh: capMWh}
	}
	plan, err := SolveGeoHorizon(sites)
	if err != nil {
		t.Fatal(err)
	}
	binds := false
	for s := range sites {
		for _, v := range plan.RoutedDS[s] {
			binds = binds || math.Abs(v-capMWh) <= 1e-9*capMWh
		}
	}
	if !binds {
		t.Fatalf("no routed slot reaches the %g MWh cap: the case no longer exercises the cap row", capMWh)
	}
	writeGeoPin(&buf, "geo-3site-capped", plan)

	path := filepath.Join("testdata", "golden", "staircase.txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing staircase pin (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("staircase plans drifted from %s\n--- got ---\n%s--- want ---\n%s",
			path, buf.String(), string(want))
	}
}

func pinFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func writeHorizonPin(w io.Writer, name string, o *OfflineHorizon) {
	fmt.Fprintf(w, "## %s\nobjective %s\n", name, pinFloat(o.st.lastObjective))
	for k, v := range o.gbef {
		fmt.Fprintf(w, "gbef %d %s\n", k, pinFloat(v))
	}
	for i, dec := range o.plan {
		fmt.Fprintf(w, "slot %d grt %s serve %s charge %s discharge %s",
			i, pinFloat(dec.Grt), pinFloat(dec.ServeDT), pinFloat(dec.Charge), pinFloat(dec.Discharge))
		for u, g := range dec.GenerateUnits {
			fmt.Fprintf(w, " g%d %s", u, pinFloat(g))
		}
		fmt.Fprintln(w)
	}
}

func writeGeoPin(w io.Writer, name string, plan *GeoRoutingPlan) {
	fmt.Fprintf(w, "## %s\nobjective %s\npenalty %s\n", name, pinFloat(plan.Objective), pinFloat(plan.PenaltyUSD))
	for s, routed := range plan.RoutedDS {
		fmt.Fprintf(w, "site %d import %s export %s\n",
			s, pinFloat(plan.ImportMWh[s]), pinFloat(plan.ExportMWh[s]))
		for i, v := range routed {
			fmt.Fprintf(w, "site %d slot %d routed %s\n", s, i, pinFloat(v))
		}
	}
}
