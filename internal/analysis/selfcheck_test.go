package analysis

import (
	"path/filepath"
	"testing"
)

// TestRepositoryIsLintClean runs the full analyzer suite over the whole
// module — the same check CI's `joinlint ./...` gate performs — so a
// violation fails `go test` even before the lint job runs. The engine's
// invariants (τ-accounting mirrors, determinism of the cost-model core,
// panic boundaries) are part of its correctness story; this test keeps
// them machine-checked.
func TestRepositoryIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping whole-module analysis in -short mode")
	}
	l := fixtureLoader(t)
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; the walker is missing most of the module", len(pkgs))
	}
	for _, d := range RunAnalyzers(l.Fset, pkgs, All()) {
		t.Errorf("%s", d)
	}
}

// TestLoaderFindsModule pins module discovery from a nested directory.
func TestLoaderFindsModule(t *testing.T) {
	root, modulePath, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	if modulePath != "multijoin" {
		t.Errorf("module path = %q, want multijoin", modulePath)
	}
	if filepath.Base(filepath.Dir(filepath.Dir(root))) == "analysis" {
		t.Errorf("module root %q should be above internal/analysis", root)
	}
}

// TestLoaderPatterns pins pattern expansion: single package, subtree,
// and the testdata/hidden-directory skip rules.
func TestLoaderPatterns(t *testing.T) {
	l := fixtureLoader(t)

	one, err := l.Load("internal/guard")
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0].RelPath != "internal/guard" {
		t.Fatalf("Load(internal/guard) = %v packages, want exactly internal/guard", len(one))
	}
	if len(one[0].TypeErrors) != 0 {
		t.Errorf("internal/guard type-checks with errors: %v", one[0].TypeErrors)
	}

	tree, err := l.Load("./internal/...")
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, p := range tree {
		seen[p.RelPath] = true
		if filepath.Base(p.Dir) == "testdata" {
			t.Errorf("walker descended into testdata: %s", p.Dir)
		}
	}
	for _, wantPkg := range []string{"internal/guard", "internal/obs", "internal/database", "internal/analysis"} {
		if !seen[wantPkg] {
			t.Errorf("Load(./internal/...) missed %s", wantPkg)
		}
	}
	if seen["internal/analysis/testdata/src/panicmsg"] {
		t.Error("walker loaded a lint fixture as a module package")
	}
}
