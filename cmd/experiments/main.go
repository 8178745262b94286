// Command experiments drives the SmartDPSS scenario suite: it reproduces
// the figures of the paper's evaluation (ICDCS 2013, Sec. VI), the
// extension studies, the on-site power provisioning family
// (arXiv:1303.6775), and the geo-distributed multi-site family
// (arXiv:1308.0585; the "geo" tag), running scenarios and their inner
// sweeps on a worker pool.
//
// Usage:
//
//	experiments [-list] [-run selectors] [-parallel N] [-json]
//	            [-days N] [-seed S] [-seeds N] [-skip-offline]
//	            [-csv path] [-out-dir dir]
//
// Flags:
//
//	-list          print every registered scenario (name, tags,
//	               description) and exit
//	-run           comma-separated scenario names and/or tags to run
//	               (e.g. "fig6v", "ext", "provision", "fig5,ext-cycle");
//	               default is the "paper" tag — the seven figures in
//	               paper order
//	-parallel      worker-pool width; 0 (default) uses GOMAXPROCS, 1
//	               forces sequential execution; results are
//	               byte-identical at every level
//	-json          emit the tables as a JSON array instead of aligned
//	               text
//	-days          trace horizon in days (paper: 31)
//	-seed          generator seed
//	-seeds         seed count for the ext-seeds scenario
//	-skip-offline  skip the clairvoyant offline-LP benchmark columns
//	               (they dominate the runtime)
//	-csv           export the Fig. 5 raw traces to this CSV file
//	-out-dir       also write each table as <scenario>.csv into this
//	               directory
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/smartdpss/smartdpss/internal/experiments"
	"github.com/smartdpss/smartdpss/internal/suite"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	days := fs.Int("days", 31, "trace horizon in days")
	seed := fs.Int64("seed", 1, "generator seed")
	skipOffline := fs.Bool("skip-offline", false, "skip the clairvoyant benchmark columns")
	seeds := fs.Int("seeds", 5, "seed count for the ext-seeds scenario")
	parallel := fs.Int("parallel", 0, "worker-pool width (0 = GOMAXPROCS, 1 = sequential)")
	list := fs.Bool("list", false, "list registered scenarios and exit")
	runSel := fs.String("run", "", "comma-separated scenario names and/or tags (default: the paper figures)")
	asJSON := fs.Bool("json", false, "emit tables as JSON instead of aligned text")
	csvPath := fs.String("csv", "", "export the Fig. 5 raw traces to this CSV file")
	outDir := fs.String("out-dir", "", "also write each table as CSV into this directory")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		return listScenarios(os.Stdout)
	}

	cfg := suite.Config{
		Days:        *days,
		Seed:        *seed,
		SkipOffline: *skipOffline,
		Seeds:       *seeds,
		Parallel:    *parallel,
	}

	selectors := splitSelectors(*runSel)
	if len(selectors) == 0 {
		selectors = []string{experiments.TagPaper}
	}
	scenarios, err := suite.Select(selectors...)
	if err != nil {
		return err
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		if err := experiments.ExportFig5CSV(cfg, f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if !*asJSON {
			fmt.Printf("wrote raw traces to %s\n\n", *csvPath)
		}
	}

	results := suite.Run(cfg, scenarios)
	for _, r := range results {
		if r.Err != nil {
			return r.Err
		}
	}

	if *asJSON {
		if err := emitJSON(os.Stdout, results); err != nil {
			return err
		}
	} else {
		for _, r := range results {
			if err := r.Table.Fprint(os.Stdout); err != nil {
				return err
			}
		}
	}

	if *outDir == "" {
		return nil
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	for _, r := range results {
		f, err := os.Create(filepath.Join(*outDir, r.Scenario.Name+".csv"))
		if err != nil {
			return err
		}
		if err := r.Table.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// splitSelectors parses a comma-separated selector list.
func splitSelectors(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// listScenarios prints the registry as an aligned table.
func listScenarios(w *os.File) error {
	t := &suite.Table{
		Title:   "Registered scenarios",
		Note:    "select by name or tag with -run; the default run is the \"paper\" tag.",
		Columns: []string{"name", "tags", "description"},
	}
	for _, s := range suite.Scenarios() {
		t.AddRow(s.Name, strings.Join(s.Tags, ","), s.Description)
	}
	return t.Fprint(w)
}

// jsonTable is the -json wire format for one scenario result.
type jsonTable struct {
	Name    string     `json:"name"`
	Title   string     `json:"title"`
	Note    string     `json:"note,omitempty"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// emitJSON writes the results as one indented JSON array.
func emitJSON(w *os.File, results []suite.Result) error {
	out := make([]jsonTable, len(results))
	for i, r := range results {
		out[i] = jsonTable{
			Name:    r.Scenario.Name,
			Title:   r.Table.Title,
			Note:    r.Table.Note,
			Columns: r.Table.Columns,
			Rows:    r.Table.Rows,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
