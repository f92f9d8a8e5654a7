package leasing

// Documentation-consistency tests: the repository's promise is that every
// experiment is indexed in DESIGN.md and recorded in EXPERIMENTS.md; these
// tests keep the docs from drifting as experiments are added.

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"leasing/internal/analysis"
	"leasing/internal/cluster"
	"leasing/internal/experiments"
	"leasing/internal/wal"
	"leasing/internal/wire"
)

func readDoc(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	return string(b)
}

func TestDesignIndexesEveryExperiment(t *testing.T) {
	design := readDoc(t, "DESIGN.md")
	for _, id := range ExperimentIDs() {
		if !strings.Contains(design, id+" ") && !strings.Contains(design, "| "+id+" |") {
			t.Errorf("DESIGN.md does not index experiment %s", id)
		}
	}
}

func TestExperimentsRecordsEveryExperiment(t *testing.T) {
	record := readDoc(t, "EXPERIMENTS.md")
	for _, id := range ExperimentIDs() {
		if !strings.Contains(record, id) {
			t.Errorf("EXPERIMENTS.md does not record experiment %s", id)
		}
	}
}

func TestReadmeMentionsDeliverables(t *testing.T) {
	readme := readDoc(t, "README.md")
	for _, want := range []string{
		"cmd/leasebench", "cmd/leasereport", "cmd/leaseload",
		"cmd/leased", "examples/quickstart", "DESIGN.md", "EXPERIMENTS.md",
		"docs/ARCHITECTURE.md", "docs/API.md", "docs/OPERATIONS.md",
		"docs/DURABILITY.md", "go test", "PODC 2015",
		"Leaser", "Replay", "Interleave", "Engine", "Serve", "Dial",
		"OpenDurableLog", "RecoverEngine",
		"-json", "BENCH_PR3.json", "BENCH_PR4.json", "BENCH_PR5.json",
		"BENCH_PR6.json", "servebench", "-gate", "Prometheus",
		"docs/CLUSTER.md", "BENCH_PR8.json", "DialCluster", "-peers",
		"failover", "-nodes", "-wal", "-kill", "-leased", "BENCH_PR14.json",
	} {
		if !strings.Contains(readme, want) {
			t.Errorf("README.md missing %q", want)
		}
	}
}

// TestGeneratedDocsCarryHeader keeps the generated documents recognizably
// generated: a hand-recreated DESIGN.md without the header would silently
// stop being checked against the registry.
func TestGeneratedDocsCarryHeader(t *testing.T) {
	for _, name := range []string{"DESIGN.md", "EXPERIMENTS.md", "docs/API.md", "docs/DURABILITY.md", "docs/CLUSTER.md"} {
		if !strings.HasPrefix(readDoc(t, name), experiments.GeneratedHeader) {
			t.Errorf("%s does not start with the cmd/leasereport generated-file header", name)
		}
	}
}

// TestPackageDocsMatchRegistrySize guards the drift this repo once had:
// doc.go and leasing.go claiming "sixteen experiments E1..E16" while the
// registry held twenty.
func TestPackageDocsMatchRegistrySize(t *testing.T) {
	last := ExperimentIDs()[len(ExperimentIDs())-1]
	for _, name := range []string{"doc.go", "leasing.go"} {
		src := readDoc(t, name)
		if !strings.Contains(src, "E1.."+last) {
			t.Errorf("%s does not document the experiment range E1..%s", name, last)
		}
		if strings.Contains(src, "sixteen") || (last != "E16" && strings.Contains(src, "E1..E16")) {
			t.Errorf("%s still documents the stale sixteen-experiment registry", name)
		}
	}
}

// TestDocGoDocumentsStreamProtocol keeps the package documentation honest
// about the unified streaming API being the primary interface.
func TestDocGoDocumentsStreamProtocol(t *testing.T) {
	src := readDoc(t, "doc.go")
	for _, want := range []string{"Leaser", "Observe", "Replay", "Interleave"} {
		if !strings.Contains(src, want) {
			t.Errorf("doc.go does not document %s of the stream protocol", want)
		}
	}
}

// TestInternalPackagesHaveGodoc enforces that every internal package
// carries package-level documentation: a doc comment starting with
// "Package <name>" on some file's package clause.
func TestInternalPackagesHaveGodoc(t *testing.T) {
	dirs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no internal packages found")
	}
	for _, dir := range dirs {
		info, err := os.Stat(dir)
		if err != nil || !info.IsDir() {
			continue
		}
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			t.Errorf("%s: %v", dir, err)
			continue
		}
		for name, pkg := range pkgs {
			found := false
			for _, f := range pkg.Files {
				if f.Doc != nil && strings.HasPrefix(f.Doc.Text(), "Package "+name) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("internal package %s (%s) has no package-level godoc", name, dir)
			}
		}
	}
}

// TestReadmeFlagsExist is the quickstart drift gate: every command-line
// flag the README or any document under docs/ mentions must still be
// defined by some cmd/ tool (or be a known `go test` flag), so renamed
// or removed flags cannot linger anywhere in the docs. The doc list is
// globbed, not enumerated — a new docs/*.md is gated the day it lands.
func TestReadmeFlagsExist(t *testing.T) {
	defined := map[string]bool{
		// `go test` / `go build` flags appearing in the docs' command
		// lines.
		"bench": true, "benchmem": true, "race": true, "run": true,
		"o": true, "update": true,
		// `go vet` flags appearing in docs/LINTING.md's command lines.
		"vettool": true,
	}
	mains, err := filepath.Glob("cmd/*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	if len(mains) == 0 {
		t.Fatal("no cmd mains found")
	}
	// Both definition forms count: fs.Int("name", ...) and
	// fs.IntVar(&target, "name", ...).
	def := regexp.MustCompile(`fs\.[A-Za-z0-9]+\((?:&[A-Za-z0-9_.]+, )?"([a-z][a-z0-9-]*)"`)
	for _, m := range mains {
		for _, g := range def.FindAllStringSubmatch(readDoc(t, m), -1) {
			defined[g[1]] = true
		}
	}
	docs := []string{"README.md"}
	more, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	if len(more) < 4 {
		t.Fatalf("docs glob found only %v", more)
	}
	docs = append(docs, more...)
	use := regexp.MustCompile("(?m)(?:^|[\\s`(])-([a-z][a-z0-9-]*)")
	for _, doc := range docs {
		for _, g := range use.FindAllStringSubmatch(readDoc(t, doc), -1) {
			flag := strings.TrimRight(g[1], "-")
			if !defined[flag] {
				t.Errorf("%s mentions flag -%s, which no cmd/ tool defines", doc, flag)
			}
		}
	}
}

// TestArchitectureDocLinked keeps the architecture document discoverable
// and honest: it must exist, be linked from README and DESIGN.md, and
// describe the serving layers including the lease service and the
// durability layer.
func TestArchitectureDocLinked(t *testing.T) {
	arch := readDoc(t, "docs/ARCHITECTURE.md")
	for _, want := range []string{
		"internal/engine", "internal/stream", "cmd/leaseload",
		"internal/wire", "internal/server", "internal/client",
		"cmd/leased", "byte-identical", "backpressure", "429",
		"OPERATIONS.md", "API.md",
		"internal/wal", "DURABILITY.md", "write-ahead",
		"internal/cluster", "CLUSTER.md", "consistent-hash", "failover",
		"log shipping",
	} {
		if !strings.Contains(arch, want) {
			t.Errorf("docs/ARCHITECTURE.md does not mention %q", want)
		}
	}
	for _, name := range []string{"README.md", "DESIGN.md"} {
		if !strings.Contains(readDoc(t, name), "docs/ARCHITECTURE.md") {
			t.Errorf("%s does not link docs/ARCHITECTURE.md", name)
		}
	}
}

// TestOperationsDocLinked keeps the operator guide discoverable (linked
// from README, DESIGN.md and docs/ARCHITECTURE.md) and covering the
// operational surface: every leased flag, auth, metrics, shutdown, and
// the sizing baselines.
func TestOperationsDocLinked(t *testing.T) {
	ops := readDoc(t, "docs/OPERATIONS.md")
	for _, want := range []string{
		"-addr", "-shards", "-queue", "-batch", "-record", "-auth", "-drain",
		"-data-dir", "-fsync", "-compact-every",
		"SIGTERM", "429", "BENCH_PR3.json", "BENCH_PR4.json", "BENCH_PR5.json",
		"BENCH_PR6.json", "BENCH_PR7.json", "/v1/metrics", "/v1/healthz", "API.md",
		"ARCHITECTURE.md", "DURABILITY.md", "Backup", "compact",
		"Capacity planning", "-tenants", "servebench", "-gate",
		"-gate-tolerance", "promtool", "format=prometheus",
		"Binary framing", "application/x-lease-binary", "-binary",
		"-domains", "-cpuprofile",
		"leased_engine_events_total", "leased_wal_appends_total",
		"leased_http_requests_total",
		"-peers", "-self", "-peer-token", "BENCH_PR8.json", "CLUSTER.md",
		"leased_shipper_failed_peers", "-nodes", "-wal", "-kill",
		"-leased", "BENCH_PR14.json",
	} {
		if !strings.Contains(ops, want) {
			t.Errorf("docs/OPERATIONS.md does not mention %q", want)
		}
	}
	for _, name := range []string{"README.md", "DESIGN.md", "docs/ARCHITECTURE.md"} {
		if !strings.Contains(readDoc(t, name), "OPERATIONS.md") {
			t.Errorf("%s does not link the operator guide", name)
		}
	}
	if !strings.Contains(readDoc(t, "README.md"), "docs/API.md") {
		t.Error("README.md does not link the API reference")
	}
}

// TestAPIDocMatchesWire is the cheap in-tree twin of `leasereport
// -check`: the committed docs/API.md must be byte-identical to the
// reference regenerated from internal/wire's declarations.
func TestAPIDocMatchesWire(t *testing.T) {
	want := experiments.GeneratedHeader + string(wire.APIMarkdown())
	if got := readDoc(t, "docs/API.md"); got != want {
		t.Error("docs/API.md drifted from internal/wire; regenerate with: go run ./cmd/leasereport -quick")
	}
}

// TestDurabilityDocMatchesWal is the same gate for the WAL reference:
// the committed docs/DURABILITY.md must be byte-identical to the
// document regenerated from internal/wal and the committed
// BENCH_PR5.json.
func TestDurabilityDocMatchesWal(t *testing.T) {
	bench, err := wal.LoadBenchPair("BENCH_PR5.json")
	if err != nil {
		t.Fatalf("BENCH_PR5.json must be committed alongside docs/DURABILITY.md: %v", err)
	}
	want := experiments.GeneratedHeader + string(wal.DurabilityMarkdown(bench))
	if got := readDoc(t, "docs/DURABILITY.md"); got != want {
		t.Error("docs/DURABILITY.md drifted from internal/wal; regenerate with: go run ./cmd/leasereport -quick")
	}
}

// TestClusterDocMatches is the same gate for the cluster reference:
// the committed docs/CLUSTER.md must be byte-identical to the document
// regenerated from internal/cluster and the committed BENCH_PR8.json.
func TestClusterDocMatches(t *testing.T) {
	bench, err := cluster.LoadScalingBench("BENCH_PR8.json")
	if err != nil {
		t.Fatalf("BENCH_PR8.json must be committed alongside docs/CLUSTER.md: %v", err)
	}
	want := experiments.GeneratedHeader + string(cluster.ClusterMarkdown(bench))
	if got := readDoc(t, "docs/CLUSTER.md"); got != want {
		t.Error("docs/CLUSTER.md drifted from internal/cluster; regenerate with: go run ./cmd/leasereport -quick")
	}
}

// TestClusterDocLinked keeps the cluster reference discoverable (linked
// from the README, the architecture document and the operator guide)
// and covering the load-bearing pieces: placement, redirects, the
// log-shipping delivery contract, and the failover runbook.
func TestClusterDocLinked(t *testing.T) {
	doc := readDoc(t, "docs/CLUSTER.md")
	for _, want := range []string{
		"307", "replica", "follower", "byte-identical", "prefix",
		"sticky-fail", "MarkDown", "SubmitResume", "BENCH_PR8.json",
		"OPERATIONS.md", "ARCHITECTURE.md", "DURABILITY.md",
		"-nodes 3 -wal fsync -kill", "Scaling",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("docs/CLUSTER.md does not mention %q", want)
		}
	}
	for _, name := range []string{"README.md", "docs/ARCHITECTURE.md", "docs/OPERATIONS.md"} {
		if !strings.Contains(readDoc(t, name), "CLUSTER.md") {
			t.Errorf("%s does not link the cluster reference", name)
		}
	}
}

// TestDurabilityDocLinked keeps the durability reference discoverable:
// linked from the README, the generated DESIGN.md, the architecture
// document and the operator guide, and covering the load-bearing
// pieces (record framing, torn-tail truncation, compaction, the
// crash-recovery runbook and the quantified fsync trade-off).
func TestDurabilityDocLinked(t *testing.T) {
	doc := readDoc(t, "docs/DURABILITY.md")
	for _, want := range []string{
		"CRC-32C", "torn", "snapshot", "compaction", "fsync",
		"group commit", "BENCH_PR5.json", "runbook", "byte-identical",
		"OPERATIONS.md", "ARCHITECTURE.md",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("docs/DURABILITY.md does not mention %q", want)
		}
	}
	for _, name := range []string{"README.md", "DESIGN.md", "docs/ARCHITECTURE.md", "docs/OPERATIONS.md"} {
		if !strings.Contains(readDoc(t, name), "DURABILITY.md") {
			t.Errorf("%s does not link the durability reference", name)
		}
	}
}

// TestLintingDocMatchesAnalyzers keeps docs/LINTING.md in lockstep
// with the leasevet registry: every registered analyzer has a `###`
// section, every `###` section names a registered analyzer, and the
// document stays discoverable from README and the architecture doc.
func TestLintingDocMatchesAnalyzers(t *testing.T) {
	doc := readDoc(t, "docs/LINTING.md")
	registered := map[string]bool{}
	for _, a := range analysis.Analyzers() {
		registered[a.Name] = true
		if !strings.Contains(doc, "### "+a.Name+"\n") {
			t.Errorf("docs/LINTING.md has no section for analyzer %q", a.Name)
		}
	}
	for _, m := range regexp.MustCompile(`(?m)^### ([a-z][a-z0-9-]*)$`).FindAllStringSubmatch(doc, -1) {
		if !registered[m[1]] {
			t.Errorf("docs/LINTING.md documents %q, which cmd/leasevet does not register", m[1])
		}
	}
	for _, want := range []string{"-vettool", "//lint:allow-", "wallclock", "cmd/leasevet", "ci.yml"} {
		if !strings.Contains(doc, want) {
			t.Errorf("docs/LINTING.md does not mention %q", want)
		}
	}
	for _, name := range []string{"README.md", "docs/ARCHITECTURE.md"} {
		if !strings.Contains(readDoc(t, name), "LINTING.md") {
			t.Errorf("%s does not link docs/LINTING.md", name)
		}
	}
}

func TestBenchmarksExistForEveryExperiment(t *testing.T) {
	bench := readDoc(t, "bench_test.go")
	for _, id := range ExperimentIDs() {
		if !strings.Contains(bench, `"`+id+`"`) {
			t.Errorf("bench_test.go has no benchmark for %s", id)
		}
	}
}
