package analysis

import (
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The fixture loader is shared across golden tests so the standard
// library is source-type-checked once per test binary, not once per
// fixture.
var (
	loaderOnce sync.Once
	testLoader *Loader
	loaderErr  error
)

func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		root, modulePath, err := FindModule(".")
		if err != nil {
			loaderErr = err
			return
		}
		testLoader = NewLoader(root, modulePath)
	})
	if loaderErr != nil {
		t.Fatalf("finding module: %v", loaderErr)
	}
	return testLoader
}

// want is one expected diagnostic parsed from a fixture's annotations.
type want struct {
	file    string
	line    int
	substr  string
	matched bool
}

var wantRE = regexp.MustCompile(`want ((?:"(?:[^"\\]|\\.)*"\s*)+)`)

var quotedRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// parseWants extracts `want "substring"` annotations from every comment
// of the package's files.
func parseWants(t *testing.T, l *Loader, pkg *Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := l.Fset.Position(c.Pos())
				for _, q := range quotedRE.FindAllString(m[1], -1) {
					s, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s:%d: bad want annotation %s: %v", pos.Filename, pos.Line, q, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, substr: s})
				}
			}
		}
	}
	return wants
}

// runFixture loads testdata/src/<fixture>, runs the analyzer through
// the driver (so suppression directives apply), and compares the
// diagnostics against the fixture's want annotations.
func runFixture(t *testing.T, an *Analyzer, fixture, relPath string) {
	t.Helper()
	l := fixtureLoader(t)
	dir := "testdata/src/" + fixture
	pkg, err := l.LoadDir(dir, l.ModulePath+"/lintfixture/"+fixture, relPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}
	if an.Applies != nil && !an.Applies(relPath) {
		t.Fatalf("analyzer %s does not apply to fixture path %q", an.Name, relPath)
	}
	diags := RunAnalyzers(l.Fset, []*Package{pkg}, []*Analyzer{an})
	wants := parseWants(t, l, pkg)
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want annotations; it cannot demonstrate a failure", fixture)
	}
	if len(diags) == 0 {
		t.Fatalf("analyzer %s produced no diagnostics on its violation fixture", an.Name)
	}

	claimed := make([]bool, len(diags))
	for _, w := range wants {
		for i, d := range diags {
			if claimed[i] || d.Pos.Filename != w.file || d.Pos.Line != w.line {
				continue
			}
			if w.substr != "" && strings.Contains(d.Message, w.substr) {
				claimed[i] = true
				w.matched = true
				break
			}
		}
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic containing %q, got none", w.file, w.line, w.substr)
		}
	}
	for i, d := range diags {
		if !claimed[i] {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

// goldenCases is the fixture table: every analyzer in the registry has
// exactly one violation fixture here, run under the module-relative
// path its Applies scope expects.
var goldenCases = []struct {
	an      *Analyzer
	fixture string
	relPath string
}{
	{Determinism, "determinism", "internal/core"},
	{NoDirectIO, "nodirectio", "internal/database"},
	{PanicMsg, "panicmsg", "internal/relation"},
	{GoroutineGuard, "goroutineguard", "internal/database"},
	{JSONTags, "jsontags", "internal/obs"},
	{HotPath, "hotpath", "internal/relation"},
	{SpanClose, "spanclose", "internal/serve"},
	{LockOrder, "lockorder", "internal/serve"},
	{AtomicField, "atomicfield", "internal/serve"},
	{CtxFlow, "ctxflow", "internal/serve"},
	{MetricNames, "metricnames", "internal/serve"},
}

// TestGolden runs every analyzer against its violation fixture through
// the shared table-driven runner.
func TestGolden(t *testing.T) {
	covered := make(map[string]bool)
	for _, c := range goldenCases {
		covered[c.an.Name] = true
		c := c
		t.Run(c.fixture, func(t *testing.T) {
			runFixture(t, c.an, c.fixture, c.relPath)
		})
	}
	for _, an := range All() {
		if !covered[an.Name] {
			t.Errorf("analyzer %q has no golden fixture in goldenCases", an.Name)
		}
	}
}

// TestHotPathIgnoresUntaggedFiles pins the opt-in boundary: a package
// full of would-be violations produces nothing without the directive.
func TestHotPathIgnoresUntaggedFiles(t *testing.T) {
	l := fixtureLoader(t)
	pkg, err := l.LoadDir("testdata/src/nodirectio", l.ModulePath+"/lintfixture/nodirectio2", "internal/relation")
	if err != nil {
		t.Fatal(err)
	}
	diags := RunAnalyzers(l.Fset, []*Package{pkg}, []*Analyzer{HotPath})
	if len(diags) != 0 {
		t.Errorf("hotpath reported %d diagnostics on an untagged package: %v", len(diags), diags)
	}
}

// TestSuppression drives the //lint:ignore machinery end to end: a
// directive with a reason silences exactly the diagnostic on its line
// (or the line below), a directive naming another analyzer silences
// nothing, and a directive without a reason is itself reported.
func TestSuppression(t *testing.T) {
	runFixture(t, PanicMsg, "suppress", "internal/relation")

	l := fixtureLoader(t)
	pkg, err := l.LoadDir("testdata/src/suppress", l.ModulePath+"/lintfixture/suppress2", "internal/relation")
	if err != nil {
		t.Fatal(err)
	}
	diags := RunAnalyzers(l.Fset, []*Package{pkg}, []*Analyzer{PanicMsg})
	// Five panics are seeded; two carry well-formed ignores, so exactly
	// three panicmsg diagnostics plus one malformed-directive report
	// must survive.
	var panicCount, lintCount int
	for _, d := range diags {
		switch d.Analyzer {
		case PanicMsg.Name:
			panicCount++
		case driverName:
			lintCount++
		default:
			t.Errorf("unexpected analyzer %q in %s", d.Analyzer, d)
		}
	}
	if panicCount != 3 {
		t.Errorf("suppression filtered to %d panicmsg diagnostics, want 3 (two of five suppressed)", panicCount)
	}
	if lintCount != 1 {
		t.Errorf("got %d malformed-directive diagnostics, want 1", lintCount)
	}
}

// TestAnalyzerAppliesScoping pins each analyzer's package scope: the
// determinism allowlist, the cli/cmd stdio exemptions, and the guard
// package's panic-machinery exemption.
func TestAnalyzerAppliesScoping(t *testing.T) {
	cases := []struct {
		an   *Analyzer
		rel  string
		want bool
	}{
		{Determinism, "internal/database", true},
		{Determinism, "", true},
		{Determinism, "internal/obs", false},
		{Determinism, "internal/experiments", false},
		{Determinism, "internal/gen", false},
		{Determinism, "internal/cli", false},
		{Determinism, "cmd/joinopt", false},
		{Determinism, "examples/quickstart", false},

		{NoDirectIO, "internal/database", true},
		{NoDirectIO, "internal/cli", false},
		{NoDirectIO, "cmd/joinlint", false},
		{NoDirectIO, "", false},

		{PanicMsg, "internal/relation", true},
		{PanicMsg, "internal/guard", false},
		{PanicMsg, "cmd/joinopt", false},

		{GoroutineGuard, "internal/database", true},
		{GoroutineGuard, "cmd/experiments", false},

		{JSONTags, "internal/obs", true},
		{JSONTags, "", true},
		{JSONTags, "cmd/joinopt", false},

		{SpanClose, "internal/serve", true},
		{SpanClose, "internal/core", true},
		{SpanClose, "internal/obs", false},
		{SpanClose, "cmd/joinserve", false},

		{LockOrder, "internal/serve", true},
		{LockOrder, "internal/guard", true},
		{LockOrder, "internal/database", true},
		{LockOrder, "internal/cli", false},
		{LockOrder, "cmd/joinserve", false},

		{AtomicField, "internal/serve", true},
		{AtomicField, "cmd/joinserve", true},
		{AtomicField, "examples/quickstart", false},

		{CtxFlow, "internal/serve", true},
		{CtxFlow, "internal/cli", true},
		{CtxFlow, "", true},
		{CtxFlow, "cmd/joinopt", false},
		{CtxFlow, "cmd/joinserve", false},

		{MetricNames, "internal/serve", true},
		{MetricNames, "cmd/joinserve", true},
		{MetricNames, "internal/obs", false},
	}
	if HotPath.Applies != nil {
		t.Error("hotpath must apply everywhere: the //joinlint:hotpath directive is its only gate")
	}
	for _, c := range cases {
		if got := c.an.Applies(c.rel); got != c.want {
			t.Errorf("%s.Applies(%q) = %v, want %v", c.an.Name, c.rel, got, c.want)
		}
	}
}

// TestAllAnalyzersRegistered keeps the registry in sync with the suite.
func TestAllAnalyzersRegistered(t *testing.T) {
	names := make(map[string]bool)
	for _, an := range All() {
		if an.Name == "" || an.Doc == "" || an.Run == nil {
			t.Errorf("analyzer %+v is missing a name, doc or run function", an)
		}
		if names[an.Name] {
			t.Errorf("duplicate analyzer name %q", an.Name)
		}
		names[an.Name] = true
	}
	for _, wantName := range []string{
		"determinism", "nodirectio", "panicmsg",
		"goroutineguard", "jsontags", "hotpath", "spanclose",
		"lockorder", "atomicfield", "ctxflow", "metricnames",
	} {
		if !names[wantName] {
			t.Errorf("registry is missing analyzer %q", wantName)
		}
	}
}

// TestDiagnosticString pins the file:line:col rendering the CI log
// surfaces.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "panicmsg", Message: "boom"}
	d.Pos.Filename = "x.go"
	d.Pos.Line = 3
	d.Pos.Column = 7
	if got, wantStr := d.String(), "x.go:3:7: panicmsg: boom"; got != wantStr {
		t.Errorf("String() = %q, want %q", got, wantStr)
	}
}
