package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	runErr := f()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

// writeTrace writes a trace file: a JSON array of wire events, the
// format leasegen writes and the submit endpoint takes.
func writeTrace(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSimulateDays(t *testing.T) {
	path := writeTrace(t, `[{"time":0,"kind":"day"},{"time":1,"kind":"day"},{"time":2,"kind":"day"},{"time":9,"kind":"day"},{"time":10,"kind":"day"}]`)
	for _, algo := range []string{"det", "rand"} {
		out, err := captureStdout(t, func() error {
			return run([]string{"-trace", path, "-algorithm", algo, "-k", "2"})
		})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		for _, want := range []string{"online cost", "offline OPT", "ratio"} {
			if !strings.Contains(out, want) {
				t.Errorf("%s output missing %q:\n%s", algo, want, out)
			}
		}
	}
}

func TestSimulateDeadline(t *testing.T) {
	path := writeTrace(t, `[{"time":0,"kind":"window","d":4},{"time":3,"kind":"window"},{"time":9,"kind":"window","d":2}]`)
	out, err := captureStdout(t, func() error {
		return run([]string{"-trace", path, "-k", "2"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "demands: 3") {
		t.Errorf("output missing demand count:\n%s", out)
	}
}

func TestSimulateElements(t *testing.T) {
	path := writeTrace(t, `[{"time":0,"kind":"element","p":1},{"time":2,"kind":"element","elem":1,"p":1},{"time":5,"kind":"element","elem":2,"p":1}]`)
	out, err := captureStdout(t, func() error {
		return run([]string{"-trace", path, "-k", "2", "-sets", "6", "-delta", "2", "-seed", "4"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "ratio") {
		t.Errorf("output missing ratio:\n%s", out)
	}
}

func TestSimulateErrors(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Error("missing -trace accepted")
	}
	if err := run([]string{"-trace", "/nonexistent/file.json"}); err == nil {
		t.Error("missing file accepted")
	}
	path := writeTrace(t, `[{"time":1,"kind":"day"}]`)
	if err := run([]string{"-trace", path, "-algorithm", "bogus"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestSimulateInterleavedTraces(t *testing.T) {
	a := writeTrace(t, `[{"time":0,"kind":"day"},{"time":4,"kind":"day"},{"time":8,"kind":"day"}]`)
	b := writeTrace(t, `[{"time":1,"kind":"day"},{"time":4,"kind":"day"},{"time":9,"kind":"day"}]`)
	out, err := captureStdout(t, func() error {
		return run([]string{"-trace", a + "," + b, "-k", "2", "-curve"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "demands: 6") {
		t.Errorf("interleaved demand count missing:\n%s", out)
	}
	if !strings.Contains(out, "curve: event 0") || !strings.Contains(out, "curve: event 5") {
		t.Errorf("cost curve missing:\n%s", out)
	}
	// The merge is deterministic: replaying the same pair yields identical
	// output bytes.
	again, err := captureStdout(t, func() error {
		return run([]string{"-trace", a + "," + b, "-k", "2", "-curve"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if out != again {
		t.Error("interleaved replay not deterministic")
	}
}

func TestSimulateMixedKindsRejected(t *testing.T) {
	a := writeTrace(t, `[{"time":0,"kind":"day"}]`)
	b := writeTrace(t, `[{"time":0,"kind":"window","d":1}]`)
	if err := run([]string{"-trace", a + "," + b}); err == nil {
		t.Error("mixed trace kinds accepted")
	}
}

// TestTraceValidation: a trace the replay cannot honour fails the run
// with an error, never a panic: an order regression within a file, a
// negative slack or element, a kind leasesim has no domain for, and a
// file that mixes kinds.
func TestTraceValidation(t *testing.T) {
	bad := map[string]string{
		"unsorted days":                   `[{"time":5,"kind":"day"},{"time":3,"kind":"day"}]`,
		"out-of-order deadline clients":   `[{"time":5,"kind":"window","d":1},{"time":1,"kind":"window","d":1}]`,
		"out-of-order element arrivals":   `[{"time":3,"kind":"element","p":1},{"time":1,"kind":"element","p":1}]`,
		"negative slack":                  `[{"time":0,"kind":"window","d":-1}]`,
		"negative element":                `[{"time":0,"kind":"element","elem":-1,"p":1}]`,
		"negative multiplicity":           `[{"time":0,"kind":"element","p":-1}]`,
		"unknown kind":                    `[{"time":0,"kind":"bogus"}]`,
		"kind without a leasesim domain":  `[{"time":0,"kind":"batch"}]`,
		"file mixing kinds":               `[{"time":0,"kind":"day"},{"time":1,"kind":"window","d":1}]`,
		"not a JSON array":                `{"kind":"days","days":[1]}`,
		"garbage":                         `{not json`,
		"empty array (no demands at all)": `[]`,
	}
	for name, body := range bad {
		t.Run(name, func(t *testing.T) {
			path := writeTrace(t, body)
			if _, err := captureStdout(t, func() error {
				return run([]string{"-trace", path, "-k", "2", "-sets", "6", "-delta", "2"})
			}); err == nil {
				t.Errorf("trace %s replayed without error", body)
			}
		})
	}
}

// TestElementZeroMultiplicityReadsAsOne: "p": 0 (or no p at all) is the
// wire default, multiplicity 1, so such a trace replays exactly like
// one that says "p": 1.
func TestElementZeroMultiplicityReadsAsOne(t *testing.T) {
	args := func(path string) []string {
		return []string{"-trace", path, "-k", "2", "-sets", "6", "-delta", "2", "-seed", "4", "-curve"}
	}
	var outs []string
	for _, p := range []string{`"p":0`, `"p":1`} {
		path := writeTrace(t, `[{"time":0,"kind":"element",`+p+`},{"time":2,"kind":"element","elem":1,`+p+`}]`)
		out, err := captureStdout(t, func() error { return run(args(path)) })
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		outs = append(outs, out)
	}
	if outs[0] != outs[1] {
		t.Errorf(`"p":0 replayed differently from "p":1:
%s
vs
%s`, outs[0], outs[1])
	}
}
