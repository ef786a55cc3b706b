package serve

import (
	"bytes"
	"math/rand"
	"testing"

	"multijoin/internal/gen"
)

// cliqueBody is a fixed request body: a 5-relation clique, 250 rows per
// relation, five attributes each.
func cliqueBody(t testing.TB) []byte {
	db := gen.Uniform(rand.New(rand.NewSource(7)), gen.Schemes(gen.Clique, 5), 250, 50)
	body, err := BuildRequestBodyMode(db, "", true, false, "")
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestDecodeRequestAllocBudget is a regression tripwire for the
// single-pass decoder. A row whose values the database's dictionary
// already holds costs no allocation, so what remains is the per-database
// structures: slabs, indexes, the dictionary and one string per
// distinct value. The encoding/json decoder spent about 15 400 allocs
// on this body: two decodes into intermediate forms and a tuple map
// per row.
func TestDecodeRequestAllocBudget(t *testing.T) {
	body := cliqueBody(t)
	allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := DecodeRequest(bytes.NewReader(body)); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 600
	if allocs > budget {
		t.Fatalf("DecodeRequest allocates %.0f allocs/op on a 5x250-row body, budget %d", allocs, budget)
	}
}

func BenchmarkDecodeRequest(b *testing.B) {
	body := cliqueBody(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeRequest(bytes.NewReader(body)); err != nil {
			b.Fatal(err)
		}
	}
}
