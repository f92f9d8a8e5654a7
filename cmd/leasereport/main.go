// Command leasereport regenerates the generated documentation: DESIGN.md
// (architecture and the E1..E20 experiment index) and EXPERIMENTS.md
// (paper-predicted vs measured, one table per experiment) from the
// experiment registry, docs/API.md (the lease service's endpoint
// reference) from the protocol declarations in internal/wire,
// docs/DURABILITY.md (the write-ahead log format, recovery semantics
// and runbook) from internal/wal, and docs/CLUSTER.md (tenant
// placement, log-shipping replication and the failover runbook) from
// internal/cluster. Every document is rendered from the code alone, so
// none can drift from it, and -check turns that promise into a CI gate
// by regenerating all five files in memory and failing when the
// committed bytes differ.
//
// Usage:
//
//	leasereport [-quick] [-seed 2015] [-workers 0] [-dir .]
//	leasereport -check [-quick] [-seed 2015]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"leasing/internal/cluster"
	"leasing/internal/experiments"
	"leasing/internal/wal"
	"leasing/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "leasereport:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("leasereport", flag.ContinueOnError)
	var (
		quick   = fs.Bool("quick", false, "shrink sweeps and trial counts (the committed docs use -quick)")
		seed    = fs.Int64("seed", 2015, "base random seed")
		workers = fs.Int("workers", 0, "trial-engine workers; <= 0 selects GOMAXPROCS (output is identical either way)")
		dir     = fs.String("dir", ".", "directory holding DESIGN.md and EXPERIMENTS.md")
		check   = fs.Bool("check", false, "verify the committed docs match regenerated output instead of writing")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := experiments.Config{Quick: *quick, Seed: *seed, Workers: *workers}
	// The regeneration hint mirrors the flags of this invocation, so
	// following it reproduces exactly the bytes -check compared against.
	regen := "go run ./cmd/leasereport"
	if *quick {
		regen += " -quick"
	}
	regen += fmt.Sprintf(" -seed %d", *seed)
	if *dir != "." {
		regen += " -dir " + *dir
	}

	if *check {
		// Cheap failures first: read all committed files and compare the
		// run-free DESIGN.md, docs/API.md, docs/DURABILITY.md and
		// docs/CLUSTER.md before spending the full experiment sweep on
		// EXPERIMENTS.md.
		committed := map[string][]byte{}
		for _, name := range []string{"DESIGN.md", "EXPERIMENTS.md", apiDocPath, durabilityDocPath, clusterDocPath} {
			got, err := os.ReadFile(filepath.Join(*dir, name))
			if err != nil {
				return fmt.Errorf("%s: %w (generate it with: %s)", name, err, regen)
			}
			committed[name] = got
		}
		if err := checkDoc("DESIGN.md", committed["DESIGN.md"], experiments.DesignMarkdown(), regen); err != nil {
			return err
		}
		if err := checkDoc(apiDocPath, committed[apiDocPath], apiMarkdown(), regen); err != nil {
			return err
		}
		if err := checkDoc(durabilityDocPath, committed[durabilityDocPath], durabilityMarkdown(), regen); err != nil {
			return err
		}
		if err := checkDoc(clusterDocPath, committed[clusterDocPath], clusterMarkdown(), regen); err != nil {
			return err
		}
		record, err := experiments.ExperimentsMarkdown(cfg)
		if err != nil {
			return err
		}
		if err := checkDoc("EXPERIMENTS.md", committed["EXPERIMENTS.md"], record, regen); err != nil {
			return err
		}
		fmt.Printf("leasereport: DESIGN.md, EXPERIMENTS.md, %s, %s and %s match the code (%d experiments, %d endpoints)\n",
			apiDocPath, durabilityDocPath, clusterDocPath, len(experiments.IDs()), len(wire.Endpoints()))
		return nil
	}

	record, err := experiments.ExperimentsMarkdown(cfg)
	if err != nil {
		return err
	}
	docs := []struct {
		name string
		want []byte
	}{
		{"DESIGN.md", experiments.DesignMarkdown()},
		{"EXPERIMENTS.md", record},
		{apiDocPath, apiMarkdown()},
		{durabilityDocPath, durabilityMarkdown()},
		{clusterDocPath, clusterMarkdown()},
	}
	for _, d := range docs {
		path := filepath.Join(*dir, d.name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(path, d.want, 0o644); err != nil {
			return err
		}
		fmt.Printf("leasereport: wrote %s (%d bytes)\n", path, len(d.want))
	}
	return nil
}

// apiDocPath is where the generated endpoint reference lives, relative
// to -dir.
const apiDocPath = "docs/API.md"

// apiMarkdown renders docs/API.md: the shared generated-file header
// followed by the endpoint reference generated from internal/wire.
func apiMarkdown() []byte {
	return append([]byte(experiments.GeneratedHeader), wire.APIMarkdown()...)
}

// durabilityDocPath is where the generated WAL reference lives,
// relative to -dir.
const durabilityDocPath = "docs/DURABILITY.md"

// durabilityMarkdown renders docs/DURABILITY.md: the shared
// generated-file header followed by the WAL reference generated from
// internal/wal.
func durabilityMarkdown() []byte {
	return append([]byte(experiments.GeneratedHeader), wal.DurabilityMarkdown()...)
}

// clusterDocPath is where the generated cluster reference lives,
// relative to -dir.
const clusterDocPath = "docs/CLUSTER.md"

// clusterMarkdown renders docs/CLUSTER.md: the shared generated-file
// header followed by the cluster reference generated from
// internal/cluster.
func clusterMarkdown() []byte {
	return append([]byte(experiments.GeneratedHeader), cluster.ClusterMarkdown()...)
}

// checkDoc compares a committed doc against its regenerated bytes; regen
// is the exact command that reproduces want.
func checkDoc(name string, got, want []byte, regen string) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s drifted from the experiment registry at line %d; regenerate with: %s",
			name, firstDiffLine(got, want), regen)
	}
	return nil
}

// firstDiffLine reports the 1-based line where got and want diverge, so a
// failing CI gate points at the drifted experiment instead of just "files
// differ".
func firstDiffLine(got, want []byte) int {
	gl := bytes.Split(got, []byte("\n"))
	wl := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			return i + 1
		}
	}
	if len(gl) < len(wl) {
		return len(gl) + 1
	}
	return len(wl) + 1
}
