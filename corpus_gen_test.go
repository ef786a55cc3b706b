package multijoin_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"multijoin"
)

// TestPrintCorpusExpectations is a helper to regenerate the expectation
// table; run with -run TestPrintCorpusExpectations -v and copy.
func TestPrintCorpusExpectations(t *testing.T) {
	if os.Getenv("PRINT_CORPUS") == "" {
		t.Skip("set PRINT_CORPUS=1 to print")
	}
	entries, _ := os.ReadDir(filepath.Join("testdata", "corpus"))
	var names []string
	for _, e := range entries {
		names = append(names, e.Name()[:len(e.Name())-5])
	}
	sort.Strings(names)
	for _, name := range names {
		db := loadCorpus(t, name)
		an, err := multijoin.Analyze(multijoin.NewEvaluator(db))
		if err != nil {
			t.Fatal(err)
		}
		h := func(c multijoin.Condition) bool {
			for _, rep := range an.Profile.Reports {
				if rep.Cond == c {
					return rep.Holds
				}
			}
			return false
		}
		cost := func(sp multijoin.SearchSpace) int {
			if r, ok := an.Result(sp); ok {
				return r.Cost
			}
			return -1
		}
		fmt.Printf("\t%q: {\n\t\tconnected: %v,\n\t\tc1: %v, c1s: %v, c2: %v, c3: %v, c4: %v,\n\t\tall: %d, noCP: %d, linear: %d, linNoCP: %d,\n\t},\n",
			name, an.Profile.Connected,
			h(multijoin.C1), h(multijoin.C1Strict), h(multijoin.C2), h(multijoin.C3), h(multijoin.C4),
			cost(multijoin.SpaceAll), cost(multijoin.SpaceNoCP), cost(multijoin.SpaceLinear), cost(multijoin.SpaceLinearNoCP))
	}
}
