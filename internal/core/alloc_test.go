package core

import (
	"math/rand"
	"testing"

	"multijoin/internal/gen"
)

// TestFingerprintDBAllocBudget is a regression tripwire for the
// fingerprint's statistics pass. Distinct counts come from the ID slabs
// through one reused histogram buffer; the string-based pass spent about
// 330 allocs and 1 MB on this database, re-materializing every row once
// per column.
func TestFingerprintDBAllocBudget(t *testing.T) {
	db := gen.Uniform(rand.New(rand.NewSource(7)), gen.Schemes(gen.Clique, 5), 250, 50)
	allocs := testing.AllocsPerRun(10, func() { FingerprintDB(db) })
	const budget = 16
	if allocs > budget {
		t.Fatalf("FingerprintDB allocates %.0f allocs/op on a 5x250-row clique, budget %d", allocs, budget)
	}
}

func BenchmarkFingerprintDB(b *testing.B) {
	db := gen.Uniform(rand.New(rand.NewSource(7)), gen.Schemes(gen.Clique, 5), 250, 50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FingerprintDB(db)
	}
}
