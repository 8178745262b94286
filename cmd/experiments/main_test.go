package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleFigure(t *testing.T) {
	for _, fig := range []string{"fig5", "ext-cycle"} {
		if err := run([]string{"-days", "2", "-skip-offline", "-run", fig}); err != nil {
			t.Errorf("-run %s: %v", fig, err)
		}
	}
}

func TestRunSelectors(t *testing.T) {
	// -run accepts names, tags and comma-separated mixes.
	for _, sel := range []string{"fig5", "ext-cycle,fig5"} {
		if err := run([]string{"-days", "2", "-skip-offline", "-run", sel}); err != nil {
			t.Errorf("-run %s: %v", sel, err)
		}
	}
	if err := run([]string{"-days", "2", "-run", "no-such-tag"}); err == nil {
		t.Error("unknown selector accepted")
	}
}

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunJSON(t *testing.T) {
	// Capture stdout to validate the JSON envelope.
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run([]string{"-days", "2", "-skip-offline", "-run", "fig5", "-json"})
	w.Close()
	os.Stdout = old
	if runErr != nil {
		t.Fatal(runErr)
	}
	var tables []struct {
		Name    string     `json:"name"`
		Title   string     `json:"title"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.NewDecoder(r).Decode(&tables); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(tables) != 1 || tables[0].Name != "fig5" {
		t.Fatalf("tables = %+v, want one fig5", tables)
	}
	if len(tables[0].Rows) != 5 {
		t.Errorf("fig5 rows = %d, want 5", len(tables[0].Rows))
	}
}

func TestRunParallelLevels(t *testing.T) {
	for _, p := range []string{"1", "4"} {
		if err := run([]string{"-days", "2", "-skip-offline", "-run", "fig7", "-parallel", p}); err != nil {
			t.Errorf("-parallel %s: %v", p, err)
		}
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if err := run([]string{"-days", "2", "-run", "fig99"}); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestRunCSVExport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "fig5.csv")
	if err := run([]string{"-days", "2", "-run", "fig5", "-csv", out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "slot,") {
		t.Error("csv export malformed")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-nope"}); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"-days", "1", "-csv", filepath.Join(t.TempDir(), "no", "dir.csv")}); err == nil {
		t.Error("unwritable csv path accepted")
	}
}

func TestRunOutDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "tables")
	if err := run([]string{"-days", "2", "-run", "fig5", "-out-dir", dir}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig5.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "series,") {
		t.Errorf("table csv header = %q", strings.SplitN(string(data), "\n", 2)[0])
	}
}
