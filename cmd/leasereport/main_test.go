package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWriteCheckRoundTrip is the pipeline's core promise: docs written by
// the tool pass -check, and any edit to them fails it.
func TestWriteCheckRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-quick", "-seed", "7", "-dir", dir}); err != nil {
		t.Fatalf("write: %v", err)
	}
	for _, name := range []string{"DESIGN.md", "EXPERIMENTS.md"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s not written: %v", name, err)
		}
		for _, id := range []string{"E1", "E20"} {
			if !strings.Contains(string(b), id) {
				t.Errorf("%s missing %s", name, id)
			}
		}
	}
	if err := run([]string{"-check", "-quick", "-seed", "7", "-dir", dir}); err != nil {
		t.Fatalf("check of freshly written docs failed: %v", err)
	}

	// Hand-editing a generated doc must trip the gate.
	path := filepath.Join(dir, "EXPERIMENTS.md")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(b, []byte("manual edit\n")...), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-check", "-quick", "-seed", "7", "-dir", dir})
	if err == nil {
		t.Fatal("check accepted a hand-edited EXPERIMENTS.md")
	}
	if !strings.Contains(err.Error(), "EXPERIMENTS.md") || !strings.Contains(err.Error(), "leasereport") {
		t.Errorf("drift error should name the file and the regeneration command, got: %v", err)
	}
}

// TestCheckWorkerCountInvariance regenerates under different worker counts
// against the same committed docs; the bytes must not depend on the pool
// size.
func TestCheckWorkerCountInvariance(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-quick", "-seed", "7", "-workers", "1", "-dir", dir}); err != nil {
		t.Fatalf("write: %v", err)
	}
	for _, workers := range []string{"1", "4", "0"} {
		if err := run([]string{"-check", "-quick", "-seed", "7", "-workers", workers, "-dir", dir}); err != nil {
			t.Errorf("workers=%s: %v", workers, err)
		}
	}
}

// TestCheckMissingDocs points the user at the regeneration command when
// the docs were never generated.
func TestCheckMissingDocs(t *testing.T) {
	err := run([]string{"-check", "-quick", "-dir", t.TempDir()})
	if err == nil || !strings.Contains(err.Error(), "go run ./cmd/leasereport") {
		t.Errorf("missing-docs error should include the regeneration command, got: %v", err)
	}
}

// TestCheckNeedsOnlyTheCode: every generated doc is rendered from the
// code alone, so the committed docs pass -check from a directory that
// holds nothing else — no committed BENCH_*.json snapshot in particular.
func TestCheckNeedsOnlyTheCode(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"DESIGN.md", "EXPERIMENTS.md", apiDocPath, durabilityDocPath, clusterDocPath} {
		b, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := run([]string{"-check", "-quick", "-dir", dir}); err != nil {
		t.Fatal(err)
	}
}
