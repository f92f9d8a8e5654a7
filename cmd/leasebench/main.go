// Command leasebench regenerates the evaluation artifacts of the thesis
// "Online Resource Leasing": one table per experiment E1..E20 (theorems,
// lower bounds, tight examples, extensions; see DESIGN.md for the index).
//
// Usage:
//
//	leasebench -list
//	leasebench -experiment E1 [-quick] [-seed 42] [-workers 4]
//	leasebench -experiment all [-markdown]
//	leasebench -json [-out BENCH_PR2.json]   # machine-readable report
//
// Committed BENCH_*.json snapshots track the repo's perf trajectory,
// one per serving boundary, numbered by the PR that introduced them
// (the README documents the convention): leasebench writes the
// experiment-table reports (BENCH_PR2.json) and cmd/leaseload writes
// the serving-stack baselines — the in-process engine (BENCH_PR3.json)
// and the HTTP lease service driven with -nodes 1 (BENCH_PR4.json).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"leasing"
	"leasing/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "leasebench:", err)
		os.Exit(1)
	}
}

// jsonReport is the machine-readable benchmark format: one record per
// experiment with its full table and wall-clock cost, so the perf
// trajectory of the harness can be tracked across commits (committed
// snapshots are named BENCH_*.json).
type jsonReport struct {
	Tool        string           `json:"tool"`
	Mode        string           `json:"mode"`
	Seed        int64            `json:"seed"`
	Workers     int              `json:"workers"`
	GoVersion   string           `json:"go_version"`
	Experiments []jsonExperiment `json:"experiments"`
	TotalMS     float64          `json:"total_ms"`
}

type jsonExperiment struct {
	ID        string     `json:"id"`
	Chapter   string     `json:"chapter"`
	Paper     string     `json:"paper"`
	Predicted string     `json:"predicted"`
	Summary   string     `json:"summary"`
	Title     string     `json:"title"`
	Columns   []string   `json:"columns"`
	Rows      [][]string `json:"rows"`
	Note      string     `json:"note,omitempty"`
	ElapsedMS float64    `json:"elapsed_ms"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("leasebench", flag.ContinueOnError)
	var (
		experiment = fs.String("experiment", "all", "experiment id (E1..E20) or 'all'")
		quick      = fs.Bool("quick", false, "shrink sweeps and trial counts")
		seed       = fs.Int64("seed", 2015, "base random seed")
		workers    = fs.Int("workers", 0, "trial-engine workers; <= 0 selects GOMAXPROCS (output is identical either way)")
		markdown   = fs.Bool("markdown", false, "render tables as Markdown (the cmd/leasereport format)")
		jsonOut    = fs.Bool("json", false, "emit a machine-readable JSON report (tables + timings)")
		outPath    = fs.String("out", "", "with -json: write the report to this file instead of stdout")
		list       = fs.Bool("list", false, "list experiments and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, e := range leasing.Experiments() {
			fmt.Printf("%-4s ch %-13s %-24s %s\n", e.ID, e.Chapter, e.Paper, e.Summary)
		}
		return nil
	}
	ids := leasing.ExperimentIDs()
	if *experiment != "all" {
		ids = []string{*experiment}
	}
	cfg := experiments.Config{Quick: *quick, Seed: *seed, Workers: *workers}

	if *jsonOut {
		return writeJSON(ids, cfg, *outPath)
	}
	if *markdown {
		for _, id := range ids {
			tb, err := experiments.Run(id, cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
			fmt.Printf("### %s\n\n", tb.Title)
			if err := tb.Markdown(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	}
	lcfg := leasing.ExperimentConfig{Quick: *quick, Seed: *seed, Workers: *workers}
	if *experiment == "all" {
		return leasing.RunAllExperiments(lcfg, os.Stdout)
	}
	return leasing.RunExperiment(*experiment, lcfg, os.Stdout)
}

// writeJSON runs the selected experiments and emits the report.
func writeJSON(ids []string, cfg experiments.Config, outPath string) error {
	byID := map[string]experiments.Info{}
	for _, in := range experiments.List() {
		byID[in.ID] = in
	}
	mode := "full"
	if cfg.Quick {
		mode = "quick"
	}
	report := jsonReport{
		Tool:      "leasebench",
		Mode:      mode,
		Seed:      cfg.Seed,
		Workers:   cfg.Workers,
		GoVersion: runtime.Version(),
	}
	start := time.Now()
	for _, id := range ids {
		in, ok := byID[id]
		if !ok {
			return fmt.Errorf("unknown experiment %q", id)
		}
		expStart := time.Now()
		tb, err := experiments.Run(id, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		report.Experiments = append(report.Experiments, jsonExperiment{
			ID:        in.ID,
			Chapter:   in.Chapter,
			Paper:     in.Paper,
			Predicted: in.Predicted,
			Summary:   in.Summary,
			Title:     tb.Title,
			Columns:   tb.Columns,
			Rows:      tb.Rows,
			Note:      tb.Note,
			ElapsedMS: float64(time.Since(expStart).Microseconds()) / 1000,
		})
	}
	report.TotalMS = float64(time.Since(start).Microseconds()) / 1000

	w := os.Stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return err
	}
	if outPath != "" {
		fmt.Printf("leasebench: wrote %s (%d experiments)\n", outPath, len(report.Experiments))
	}
	return nil
}
