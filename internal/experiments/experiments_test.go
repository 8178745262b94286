package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"github.com/smartdpss/smartdpss/internal/suite"
)

// fastConfig keeps experiment tests quick: one week, no offline columns
// where they dominate runtime.
func fastConfig() Config {
	return Config{Days: 7, Seed: 1, SkipOffline: true}
}

// cell parses a table cell as a float, stripping formatting.
func cell(t *testing.T, tbl *Table, row, col int) float64 {
	t.Helper()
	raw := tbl.Rows[row][col]
	raw = strings.TrimSuffix(raw, "%")
	raw = strings.TrimPrefix(raw, "+")
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q is not numeric: %v", row, col, tbl.Rows[row][col], err)
	}
	return v
}

func TestFig5Traces(t *testing.T) {
	tbl, err := Fig5Traces(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 series", len(tbl.Rows))
	}
	names := []string{"demand_ds", "demand_dt", "renewable", "price_lt", "price_rt"}
	for i, want := range names {
		if tbl.Rows[i][0] != want {
			t.Errorf("row %d series = %q, want %q", i, tbl.Rows[i][0], want)
		}
	}
	// price_rt mean (row 4, col "mean" = 2) must exceed price_lt mean.
	if cell(t, tbl, 4, 2) <= cell(t, tbl, 3, 2) {
		t.Error("real-time price mean must exceed long-term mean")
	}
	// Solar min must be 0 (night).
	if cell(t, tbl, 2, 4) != 0 {
		t.Error("solar min must be zero")
	}
}

func TestExportFig5CSV(t *testing.T) {
	var buf bytes.Buffer
	if err := ExportFig5CSV(fastConfig(), &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 7*24+1 {
		t.Fatalf("csv lines = %d, want %d", len(lines), 7*24+1)
	}
	if !strings.HasPrefix(lines[0], "slot,demand_ds") {
		t.Errorf("csv header = %q", lines[0])
	}
}

func TestFig6VSweepShape(t *testing.T) {
	tbl, err := Fig6VSweep(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(Fig6VValues) {
		t.Fatalf("rows = %d, want %d", len(tbl.Rows), len(Fig6VValues))
	}
	first := 0
	last := len(tbl.Rows) - 1
	// Fig. 6(a): cost decreases from the smallest to the largest V.
	if cell(t, tbl, last, 1) >= cell(t, tbl, first, 1) {
		t.Errorf("cost at V=%s (%s) not below cost at V=%s (%s)",
			tbl.Rows[last][0], tbl.Rows[last][1], tbl.Rows[first][0], tbl.Rows[first][1])
	}
	// Fig. 6(b): delay increases from the smallest to the largest V.
	if cell(t, tbl, last, 2) <= cell(t, tbl, first, 2) {
		t.Errorf("delay at V=%s not above delay at V=%s", tbl.Rows[last][0], tbl.Rows[first][0])
	}
	// Impatient has the lowest delay of all.
	for r := range tbl.Rows {
		if cell(t, tbl, r, 4) > cell(t, tbl, r, 2) {
			t.Errorf("row %d: Impatient delay %s above SmartDPSS %s",
				r, tbl.Rows[r][4], tbl.Rows[r][2])
		}
	}
}

func TestFig6VSweepWithOffline(t *testing.T) {
	cfg := fastConfig()
	cfg.SkipOffline = false
	tbl, err := Fig6VSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Offline cost must be below Impatient cost in every row.
	for r := range tbl.Rows {
		if cell(t, tbl, r, 5) >= cell(t, tbl, r, 3) {
			t.Errorf("row %d: offline %s not below impatient %s",
				r, tbl.Rows[r][5], tbl.Rows[r][3])
		}
	}
}

func TestFig6TSweepShape(t *testing.T) {
	tbl, err := Fig6TSweep(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(Fig6TValues) {
		t.Fatalf("rows = %d, want %d", len(tbl.Rows), len(Fig6TValues))
	}
	// Delay direction: the paper contradicts itself on Fig. 6(d) — it
	// claims "delay decreases with the increase of T" but argues in the
	// same paragraph that "with more frequent (smaller T) power
	// management, the power demand is easier to meet (less delay)". The
	// implementation follows the stated rationale: state-freezing over
	// longer intervals lengthens waits, so delay grows with T.
	if cell(t, tbl, len(tbl.Rows)-1, 3) <= cell(t, tbl, 0, 3) {
		t.Errorf("delay at T=%s not above delay at T=%s",
			tbl.Rows[len(tbl.Rows)-1][0], tbl.Rows[0][0])
	}
	// Fig. 6(c): cost varies within a modest band (paper: −3.65%..+6.23%;
	// allow a wider band for the short synthetic horizon).
	for r := range tbl.Rows {
		if v := cell(t, tbl, r, 2); v < -20 || v > 20 {
			t.Errorf("row %d: cost deviation %s exceeds ±20%%", r, tbl.Rows[r][2])
		}
	}
}

func TestFig7FactorsShape(t *testing.T) {
	tbl, err := Fig7Factors(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Rows: 4 ε values, then RTM, then Bmax ∈ {0, 15, 30}.
	if len(tbl.Rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(tbl.Rows))
	}
	// ε raises cost: eps=0.25 (row 0) <= eps=2 (row 3), and delay falls.
	if cell(t, tbl, 0, 1) > cell(t, tbl, 3, 1) {
		t.Errorf("cost at eps=0.25 (%s) above cost at eps=2 (%s)",
			tbl.Rows[0][1], tbl.Rows[3][1])
	}
	if cell(t, tbl, 0, 2) < cell(t, tbl, 3, 2) {
		t.Errorf("delay at eps=0.25 (%s) below delay at eps=2 (%s): ε should shorten waits",
			tbl.Rows[0][2], tbl.Rows[3][2])
	}
	// TM (row 1: eps=0.5) beats RTM (row 4).
	if cell(t, tbl, 1, 1) >= cell(t, tbl, 4, 1) {
		t.Errorf("TM cost %s not below RTM cost %s", tbl.Rows[1][1], tbl.Rows[4][1])
	}
	// Battery: NB (row 5) >= Bmax=15 (row 6) >= Bmax=30 (row 7).
	if cell(t, tbl, 5, 1) < cell(t, tbl, 6, 1) {
		t.Errorf("no-battery cost %s below Bmax=15 cost %s", tbl.Rows[5][1], tbl.Rows[6][1])
	}
	if cell(t, tbl, 6, 1) < cell(t, tbl, 7, 1)-0.5 {
		t.Errorf("Bmax=15 cost %s well below Bmax=30 cost %s", tbl.Rows[6][1], tbl.Rows[7][1])
	}
	// No battery ⇒ zero battery operations.
	if cell(t, tbl, 5, 3) != 0 {
		t.Errorf("no-battery ops = %s, want 0", tbl.Rows[5][3])
	}
}

func TestFig8PenetrationShape(t *testing.T) {
	tbl, err := Fig8Penetration(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	nPen := len(Fig8PenetrationLevels)
	nVar := len(Fig8VariationFactors)
	if len(tbl.Rows) != nPen+nVar {
		t.Fatalf("rows = %d, want %d", len(tbl.Rows), nPen+nVar)
	}
	// Cost falls with penetration: essentially monotone (allow 1%
	// flattening near saturation) and strongly lower at 100% than at 0%.
	for r := 1; r < nPen; r++ {
		if cell(t, tbl, r, 2) > cell(t, tbl, r-1, 2)*1.01 {
			t.Errorf("cost at %s (%s) above cost at %s (%s)",
				tbl.Rows[r][1], tbl.Rows[r][2], tbl.Rows[r-1][1], tbl.Rows[r-1][2])
		}
	}
	if cell(t, tbl, nPen-1, 2) > 0.85*cell(t, tbl, 0, 2) {
		t.Errorf("cost at full penetration (%s) not well below zero-penetration (%s)",
			tbl.Rows[nPen-1][2], tbl.Rows[0][2])
	}
	// Demand variation rises across the variation rows.
	if cell(t, tbl, nPen+nVar-1, 4) <= cell(t, tbl, nPen, 4) {
		t.Error("demand std must grow with the variation factor")
	}
	// The variation trend is upward overall (the paper: cost increases
	// slightly with variation); compare the extremes rather than demand
	// per-step monotonicity.
	if cell(t, tbl, nPen+nVar-1, 2) <= cell(t, tbl, nPen+2, 2) {
		t.Errorf("cost at k=1.5 (%s) not above baseline k=1.0 (%s)",
			tbl.Rows[nPen+nVar-1][2], tbl.Rows[nPen+2][2])
	}
}

func TestFig9RobustnessShape(t *testing.T) {
	tbl, err := Fig9Robustness(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(Fig6VValues) {
		t.Fatalf("rows = %d, want %d", len(tbl.Rows), len(Fig6VValues))
	}
	// The paper-protocol reduction difference stays bounded for every V
	// (paper: within [−1.6, +2.1] pp over a month; allow ±8 pp for the
	// one-week test horizon).
	for r := range tbl.Rows {
		if d := cell(t, tbl, r, 3); d < -8 || d > 8 {
			t.Errorf("row %d (V=%s): difference %s pp outside ±8",
				r, tbl.Rows[r][0], tbl.Rows[r][3])
		}
	}
	// The stricter observation-noise protocol must still leave SmartDPSS
	// no more than modestly behind Impatient at mid/large V.
	for r := 3; r < len(tbl.Rows); r++ {
		if d := cell(t, tbl, r, 4); d < -10 {
			t.Errorf("row %d (V=%s): obs-noise reduction %s below -10%%",
				r, tbl.Rows[r][0], tbl.Rows[r][4])
		}
	}
}

func TestFig10ScalingShape(t *testing.T) {
	tbl, err := Fig10Scaling(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(Fig10Betas) {
		t.Fatalf("rows = %d, want %d", len(tbl.Rows), len(Fig10Betas))
	}
	// Total cost grows with β...
	for r := 1; r < len(tbl.Rows); r++ {
		if cell(t, tbl, r, 1) <= cell(t, tbl, r-1, 1) {
			t.Errorf("cost at beta=%s not above beta=%s", tbl.Rows[r][0], tbl.Rows[r-1][0])
		}
	}
	// ...and the growth is near-linear: the per-unit cost stays within a
	// moderate band of the β=1 level. (The paper claims the growth rate
	// slows, attributing it to revenue amortization, which is outside
	// the cost model.)
	if cell(t, tbl, len(tbl.Rows)-1, 2) > cell(t, tbl, 0, 2)*1.35 {
		t.Errorf("per-unit cost grew superlinearly: %s vs %s",
			tbl.Rows[len(tbl.Rows)-1][2], tbl.Rows[0][2])
	}
	// Demand must remain served at scale (Pgrid scales with β).
	for r := range tbl.Rows {
		if cell(t, tbl, r, 4) > 1 {
			t.Errorf("beta=%s: unserved %s MWh", tbl.Rows[r][0], tbl.Rows[r][4])
		}
	}
}

func TestTableFprint(t *testing.T) {
	tbl := &Table{
		Title:   "demo",
		Note:    "a note",
		Columns: []string{"a", "long-column"},
	}
	tbl.AddRow("1", "2")
	tbl.AddRow("333333", "4")
	var buf bytes.Buffer
	if err := tbl.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"## demo", "a note", "long-column", "333333"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestAllRunners(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in -short mode")
	}
	scns, err := suite.Select(TagPaper)
	if err != nil {
		t.Fatal(err)
	}
	if len(scns) != 7 {
		t.Fatalf("paper scenarios = %d, want 7", len(scns))
	}
	var buf bytes.Buffer
	for _, s := range scns {
		tbl, err := s.Run(fastConfig())
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if err := tbl.Fprint(&buf); err != nil {
			t.Fatal(err)
		}
	}
	if buf.Len() == 0 {
		t.Fatal("no output")
	}
}

// TestDeterminism: the same config must reproduce identical tables.
func TestDeterminism(t *testing.T) {
	a, err := Fig6VSweep(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig6VSweep(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	for r := range a.Rows {
		for c := range a.Rows[r] {
			if a.Rows[r][c] != b.Rows[r][c] {
				t.Fatalf("non-deterministic cell (%d,%d): %q vs %q", r, c, a.Rows[r][c], b.Rows[r][c])
			}
		}
	}
}
