package trace

import (
	"bytes"
	"encoding/csv"
	"math"
	"strconv"
	"testing"
)

// parseCSV reads WriteCSV's output back: its records, header row first,
// and each series column's values parsed with strconv.ParseFloat.
func parseCSV(t *testing.T, b []byte) (records [][]string, cols [][]float64) {
	t.Helper()
	records, err := csv.NewReader(bytes.NewReader(b)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	cols = make([][]float64, len(records[0])-1)
	for i, rec := range records[1:] {
		if rec[0] != strconv.Itoa(i) {
			t.Fatalf("row %d has slot index %q", i, rec[0])
		}
		for j, field := range rec[1:] {
			v, err := strconv.ParseFloat(field, 64)
			if err != nil {
				t.Fatalf("row %d col %d: %v", i, j, err)
			}
			cols[j] = append(cols[j], v)
		}
	}
	return records, cols
}

func TestCSVRoundTrip(t *testing.T) {
	a := FromValues("demand_ds", "MWh", []float64{1.5, 2.25, 0})
	b := FromValues("price_rt", "USD/MWh", []float64{31.125, 0.001, 150})

	var buf bytes.Buffer
	if err := WriteCSV(&buf, a, b); err != nil {
		t.Fatal(err)
	}
	records, cols := parseCSV(t, buf.Bytes())
	header := records[0]
	want := []string{"slot", "demand_ds (MWh)", "price_rt (USD/MWh)"}
	if len(header) != len(want) {
		t.Fatalf("header = %q, want %q", header, want)
	}
	for i := range want {
		if header[i] != want[i] {
			t.Errorf("header[%d] = %q, want %q", i, header[i], want[i])
		}
	}
	for i := range a.Values {
		if cols[0][i] != a.Values[i] {
			t.Errorf("round trip a[%d] = %g, want %g", i, cols[0][i], a.Values[i])
		}
		if cols[1][i] != b.Values[i] {
			t.Errorf("round trip b[%d] = %g, want %g", i, cols[1][i], b.Values[i])
		}
	}
}

func TestCSVRoundTripPreservesPrecision(t *testing.T) {
	vals := []float64{math.Pi, 1e-17, 123456789.123456789}
	s := FromValues("x", "", vals)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, s); err != nil {
		t.Fatal(err)
	}
	records, cols := parseCSV(t, buf.Bytes())
	for i, v := range vals {
		if cols[0][i] != v {
			t.Errorf("precision lost at %d: %v != %v", i, cols[0][i], v)
		}
		// The shortest text that round-trips: no digit beyond what v needs.
		if got, want := records[i+1][1], strconv.FormatFloat(v, 'g', -1, 64); got != want {
			t.Errorf("value %d written as %q, want %q", i, got, want)
		}
	}
}

func TestWriteCSVErrors(t *testing.T) {
	if err := WriteCSV(&bytes.Buffer{}); err == nil {
		t.Error("want error for no series")
	}
	a := New("a", "", 2)
	b := New("b", "", 3)
	if err := WriteCSV(&bytes.Buffer{}, a, b); err == nil {
		t.Error("want error for mismatched lengths")
	}
}
