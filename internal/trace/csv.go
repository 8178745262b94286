package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteCSV writes the series side by side as CSV with a header row of
// "name (unit)" columns preceded by a slot index column. All series must
// share the same length.
func WriteCSV(w io.Writer, series ...*Series) error {
	if len(series) == 0 {
		return fmt.Errorf("trace: no series to write")
	}
	n := series[0].Len()
	for _, s := range series {
		if s.Len() != n {
			return fmt.Errorf("trace: series %q length %d, want %d", s.Name, s.Len(), n)
		}
	}
	cw := csv.NewWriter(w)
	header := make([]string, 0, len(series)+1)
	header = append(header, "slot")
	for _, s := range series {
		header = append(header, fmt.Sprintf("%s (%s)", s.Name, s.Unit))
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	row := make([]string, len(series)+1)
	for i := 0; i < n; i++ {
		row[0] = strconv.Itoa(i)
		for j, s := range series {
			row[j+1] = strconv.FormatFloat(s.Values[i], 'g', -1, 64)
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("trace: write row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}
