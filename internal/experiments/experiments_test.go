package experiments

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"
)

func TestAllExperimentsRegistered(t *testing.T) {
	want := []string{
		"E-abort", "E-c4", "E-estimate", "E-ex1", "E-ex2", "E-ex3", "E-ex4", "E-ex5",
		"E-gamma", "E-greedy", "E-intersect", "E-intro", "E-jointree", "E-lossless",
		"E-manyjoins", "E-monotone", "E-osborn", "E-planning", "E-space", "E-superkey",
		"E-thm1", "E-thm2", "E-thm3", "E-union", "E-yannakakis",
	}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("%d experiments registered, want %d", len(got), len(want))
	}
	for i, info := range got {
		if info.ID != want[i] {
			t.Errorf("experiment %d = %s, want %s", i, info.ID, want[i])
		}
		if info.Paper == "" || info.Run == nil {
			t.Errorf("%s: incomplete registration", info.ID)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("E-ex1"); !ok {
		t.Fatal("E-ex1 should resolve")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("unknown id should not resolve")
	}
}

// TestEveryExperimentPassesItsPaperChecks is the headline integration
// test: every table regenerates and every paper assertion holds.
func TestEveryExperimentPassesItsPaperChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are exhaustive; skipped in -short mode")
	}
	for _, info := range All() {
		info := info
		t.Run(info.ID, func(t *testing.T) {
			var buf bytes.Buffer
			sum := info.Run(&buf)
			if !sum.OK {
				t.Fatalf("%s: %d/%d checks failed\n%s", info.ID, sum.Violations, sum.Checked, buf.String())
			}
			if sum.Checked == 0 {
				t.Fatalf("%s: no checks ran", info.ID)
			}
			if !strings.Contains(buf.String(), info.ID) {
				t.Fatalf("%s: output missing banner", info.ID)
			}
		})
	}
}

func TestExperimentOutputsDeterministic(t *testing.T) {
	// Seeded experiments must produce identical tables run to run.
	for _, id := range []string{"E-ex1", "E-thm3", "E-intersect"} {
		info, _ := Lookup(id)
		var a, b bytes.Buffer
		info.Run(&a)
		info.Run(&b)
		if a.String() != b.String() {
			t.Fatalf("%s output not deterministic", id)
		}
	}
}

func TestRunDiscardsCleanly(t *testing.T) {
	info, _ := Lookup("E-ex2")
	sum := info.Run(io.Discard)
	if !sum.OK {
		t.Fatal("E-ex2 failed on io.Discard")
	}
}

// TestExperimentsMDIsHarnessOutput: EXPERIMENTS.md's "Full harness
// output" block is what `go run ./cmd/experiments` prints, up to the
// timings — each [OK]/[FAIL] line's trailing time and E-manyjoins' time
// column. Regenerate the block with the command when a table changes.
func TestExperimentsMDIsHarnessOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment; skipped in -short mode")
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, block, ok := strings.Cut(string(doc), "<!-- generated by cmd/experiments; do not edit by hand -->")
	if ok {
		_, block, ok = strings.Cut(block, "```\n")
	}
	if ok {
		block, _, ok = strings.Cut(block, "```")
	}
	if !ok {
		t.Fatal("EXPERIMENTS.md has no fenced block after its generated marker")
	}
	var out bytes.Buffer
	if failed := RunAll(&out, All()); failed != 0 {
		t.Fatalf("%d experiments failed their paper checks", failed)
	}
	want, got := maskTimings(block), maskTimings(out.String())
	for i := 0; i < len(want) || i < len(got); i++ {
		var w, g string
		if i < len(want) {
			w = want[i]
		}
		if i < len(got) {
			g = got[i]
		}
		if w != g {
			t.Fatalf("EXPERIMENTS.md differs from the harness at block line %d:\n doc: %q\n run: %q", i+1, w, g)
		}
	}
}

// maskTimings splits harness output into lines with each timing
// replaced by "T".
func maskTimings(out string) []string {
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	section := ""
	for i, line := range lines {
		if strings.HasPrefix(line, "== ") {
			section = strings.Fields(line)[1]
		}
		switch {
		case strings.HasPrefix(line, "[OK] ") || strings.HasPrefix(line, "[FAIL] "):
			lines[i] = line[:strings.LastIndex(line, ", ")] + ", T)"
		case section == "E-manyjoins:" && (strings.HasPrefix(line, "chain ") || strings.HasPrefix(line, "cycle ")):
			lines[i] = line[:strings.LastIndexByte(line, ' ')] + " T"
		}
	}
	return lines
}
