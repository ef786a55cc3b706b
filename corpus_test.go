package multijoin_test

import (
	"os"
	"path/filepath"
	"testing"

	"multijoin"
	"multijoin/internal/conditions"
	"multijoin/internal/database"
)

// corpusExpectation pins the analyzer's outputs for one corpus database:
// the condition profile and the optimum per subspace (−1 = subspace
// empty). The corpus under testdata/corpus is a regression net: any
// change to the join engine, the condition checkers, or the optimizers
// that shifts these numbers fails loudly.
type corpusExpectation struct {
	connected                  bool
	c1, c1s, c2, c3, c4        bool
	all, noCP, linear, linNoCP int
}

var corpus = map[string]corpusExpectation{
	"example1": {
		connected: false,
		c1:        true, c1s: true, c2: false, c3: false, c4: true,
		all: 546, noCP: 549, linear: 570, linNoCP: 570,
	},
	"example2": {
		connected: false,
		c1:        false, c1s: false, c2: true, c3: false, c4: false,
		all: 20, noCP: 21, linear: 20, linNoCP: 21,
	},
	"example3": {
		connected: true,
		c1:        true, c1s: false, c2: true, c3: false, c4: false,
		all: 7, noCP: 7, linear: 7, linNoCP: 7,
	},
	"example4": {
		connected: true,
		c1:        false, c1s: false, c2: true, c3: false, c4: false,
		all: 11, noCP: 12, linear: 11, linNoCP: 12,
	},
	"example5": {
		connected: true,
		c1:        true, c1s: true, c2: true, c3: false, c4: false,
		all: 11, noCP: 11, linear: 12, linNoCP: 12,
	},
	"dangling_chain": {
		connected: true,
		c1:        true, c1s: true, c2: true, c3: true, c4: false,
		all: 4, noCP: 4, linear: 4, linNoCP: 4,
	},
	"growing_pair": {
		connected: true,
		c1:        true, c1s: true, c2: false, c3: false, c4: true,
		all: 4, noCP: 4, linear: 4, linNoCP: 4,
	},
	"superkey_chain": {
		connected: true,
		c1:        true, c1s: true, c2: true, c3: true, c4: false,
		all: 4, noCP: 4, linear: 4, linNoCP: 4,
	},
}

func loadCorpus(t *testing.T, name string) *multijoin.Database {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "corpus", name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	db, err := database.DecodeJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestCorpusExpectations(t *testing.T) {
	for name, want := range corpus {
		name, want := name, want
		t.Run(name, func(t *testing.T) {
			db := loadCorpus(t, name)
			an, err := multijoin.Analyze(multijoin.NewEvaluator(db))
			if err != nil {
				t.Fatal(err)
			}
			if an.Profile.Connected != want.connected {
				t.Errorf("connected = %v, want %v", an.Profile.Connected, want.connected)
			}
			condWant := map[multijoin.Condition]bool{
				conditions.C1: want.c1, conditions.C1Strict: want.c1s,
				conditions.C2: want.c2, conditions.C3: want.c3, conditions.C4: want.c4,
			}
			for _, rep := range an.Profile.Reports {
				if rep.Holds != condWant[rep.Cond] {
					t.Errorf("%s = %v, want %v", rep.Cond, rep.Holds, condWant[rep.Cond])
				}
			}
			costWant := map[multijoin.SearchSpace]int{
				multijoin.SpaceAll: want.all, multijoin.SpaceNoCP: want.noCP,
				multijoin.SpaceLinear: want.linear, multijoin.SpaceLinearNoCP: want.linNoCP,
			}
			for sp, wc := range costWant {
				res, ok := an.Result(sp)
				if !ok {
					if wc != -1 {
						t.Errorf("%s: missing result, want cost %d", sp, wc)
					}
					continue
				}
				if res.Cost != wc {
					t.Errorf("%s cost = %d, want %d", sp, res.Cost, wc)
				}
			}
			if err := multijoin.VerifyCertificates(an); err != nil {
				t.Errorf("certificates: %v", err)
			}
		})
	}
}

func TestCorpusFilesAllCovered(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join("testdata", "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if filepath.Ext(name) != ".json" {
			continue
		}
		base := name[:len(name)-len(".json")]
		if _, ok := corpus[base]; !ok {
			t.Errorf("corpus file %s has no expectation entry", name)
		}
	}
	if len(entries) < len(corpus) {
		t.Errorf("expectation entries without files")
	}
}
