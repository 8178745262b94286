package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/smartdpss/smartdpss/internal/trace"
)

// update regenerates the bit pins instead of diffing against them:
//
//	go test ./internal/engine -run Pinned -update
//
// Regenerate ONLY when an output change is intended and reviewed: the
// pins exist so that performance work on the generators and the slot
// loop reproduces every output bit.
var update = flag.Bool("update", false, "rewrite testdata/golden pins")

// checkPin diffs got against the pin file name, or rewrites it under
// -update. A mismatch reports each differing line.
func checkPin(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing pin %s (run with -update to create): %v", path, err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	if len(gl) != len(wl) {
		t.Fatalf("%s: %d lines, pin has %d", path, len(gl), len(wl))
	}
	bad := 0
	for i := range gl {
		if !bytes.Equal(gl[i], wl[i]) {
			if bad++; bad <= 10 {
				t.Errorf("%s line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
	}
	t.Errorf("%s: %d of %d lines differ", path, bad, len(wl))
}

// seriesHash is the first 64 bits of the SHA-256 of a series' length
// and the IEEE-754 bits of every sample, in hex.
func seriesHash(sr *trace.Series) string {
	h := sha256.New()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(sr.Len()))
	h.Write(b[:])
	for _, v := range sr.Values {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// TestGeneratedTracesPinned pins every bit of every series
// GenerateTraces returns, over horizons from one day to a year, and with
// and without wind and a grid price scale. Each configuration draws its
// own seed.
func TestGeneratedTracesPinned(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	seed := int64(0)
	for _, days := range []int{1, 2, 31, 365} {
		for _, windMW := range []float64{0, 0.7} {
			for _, priceScale := range []float64{0, 1.25} {
				seed++
				tc := DefaultTraceConfig()
				tc.Days, tc.Seed = days, seed
				tc.WindCapacityMW, tc.PriceScale = windMW, priceScale
				traces, err := GenerateTraces(tc)
				if err != nil {
					t.Fatalf("%+v: %v", tc, err)
				}
				set := traces.Set()
				fmt.Fprintf(&buf, "days=%d wind=%g scale=%g seed=%d", days, windMW, priceScale, seed)
				for _, sr := range []*trace.Series{set.DemandDS, set.DemandDT, set.Renewable, set.PriceLT, set.PriceRT} {
					fmt.Fprintf(&buf, " %s=%s", sr.Name, seriesHash(sr))
				}
				buf.WriteByte('\n')
				// Skip the two seeds the retired start days (100 and
				// 366) drew, so each line keeps its seed.
				seed += 2
			}
			// Skip the six seeds the retired fuel-price-trace
			// configurations drew, so each line keeps its seed.
			seed += 6
		}
		// Skip the 120 seeds the retired slot lengths (30, 15, 5, 90
		// and 1440 minutes) drew, so each line keeps its seed.
		seed += 5 * 24
	}
	checkPin(t, "traces.txt", buf.Bytes())
}

// TestCooledTracesPinned pins every bit cooling writes: the two demand
// series of the default traces generated with TraceConfig.Cooling and
// the IEEE bits of their AveragePUE, over mean temperatures from deep
// winter to past the curve's cap (45 °C), the temperature generator's
// default seed (0) and another, and one day and a month.
func TestCooledTracesPinned(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	for _, days := range []int{1, 31} {
		for _, meanC := range []float64{-10, 2, 16, 26, 45} {
			for _, seed := range []int64{0, 5} {
				tc := DefaultTraceConfig()
				tc.Days = days
				tc.Cooling = &CoolingConfig{MeanTempC: meanC, Seed: seed}
				traces, err := GenerateTraces(tc)
				if err != nil {
					t.Fatalf("days %d, %g C, seed %d: %v", days, meanC, seed, err)
				}
				set := traces.View()
				fmt.Fprintf(&buf, "days=%d mean=%g seed=%d %s=%s %s=%s pue=%016x\n",
					days, meanC, seed, set.DemandDS.Name, seriesHash(set.DemandDS),
					set.DemandDT.Name, seriesHash(set.DemandDT), math.Float64bits(traces.AveragePUE()))
			}
		}
	}
	checkPin(t, "cooling.txt", buf.Bytes())
}

// TestReportsPinned pins every policy's Finish report over the default
// month — without on-site generation, with the four-unit fleet of
// BenchmarkFleetDispatch under a 12-slot commitment window, and
// SmartDPSS with observation noise — twice: the report's JSON, and the
// IEEE bits of every slot's SlotOutcome as StepReplay returns it
// (unscrubbed), so the per-slot cost, backlog and battery trajectories
// are pinned without the report carrying them.
func TestReportsPinned(t *testing.T) {
	t.Parallel()
	traces := dayTraces(t, 31)
	base := DefaultOptions()
	fleet := base
	fleet.CommitWindow = 12
	fleet.Fleet = []UnitSpec{
		{CapacityMW: 0.5, MinLoadFrac: 0.3, FuelUSDPerMWh: 38, StartupUSD: 20, CO2KgPerMWh: 700},
		{CapacityMW: 0.25, MinLoadFrac: 0.2, FuelUSDPerMWh: 45, StartupUSD: 10, CO2KgPerMWh: 500},
		{CapacityMW: 0.25, MinLoadFrac: 0.2, FuelUSDPerMWh: 52, FuelQuadUSD: 4, CO2KgPerMWh: 400},
		{CapacityMW: 0.1, FuelUSDPerMWh: 60, StartupLagSlots: 1, CO2KgPerMWh: 300},
	}
	noise := base
	noise.ObservationNoise = 0.3
	type arm struct {
		name   string
		policy Policy
		opts   Options
	}
	var arms []arm
	for _, p := range allPolicies {
		arms = append(arms, arm{string(p), p, base}, arm{string(p) + "-fleet", p, fleet})
	}
	arms = append(arms, arm{"smartdpss-noise", PolicySmartDPSS, noise})

	var buf bytes.Buffer
	for _, a := range arms {
		slots := sha256.New()
		_, rep := replayReport(t, a.policy, a.opts, traces, func(out *SlotOutcome) { writeOutcome(slots, out) })
		js, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		sum := sha256.Sum256(js)
		fmt.Fprintf(&buf, "%s total=%v report=%s slots=%s\n", a.name, rep.TotalCostUSD,
			hex.EncodeToString(sum[:16]), hex.EncodeToString(slots.Sum(nil)[:16]))
	}
	checkPin(t, "reports.txt", buf.Bytes())
}

// writeOutcome writes the IEEE-754 bits of every field of out to h, in
// declaration order, with the slot index and the per-unit generation
// request count as 64-bit integers.
func writeOutcome(h hash.Hash, out *SlotOutcome) {
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	o, d := &out.Outcome, &out.Executed
	put(uint64(o.Slot))
	for _, v := range []float64{o.ServedDT, o.BacklogBefore, o.BacklogAfter, o.Waste, o.Unserved, o.Battery,
		d.Grt, d.ServeDT, d.Charge, d.Discharge} {
		put(math.Float64bits(v))
	}
	put(uint64(len(d.GenerateUnits)))
	for _, v := range d.GenerateUnits {
		put(math.Float64bits(v))
	}
	for _, v := range []float64{out.CostUSD, out.GridMWh, out.GenMWh} {
		put(math.Float64bits(v))
	}
}
