package relation

import (
	"fmt"
	"math/rand"
	"testing"
)

// Allocation budgets for the kernel hot paths. These are regression
// tripwires, not micro-targets: each budget has headroom over the
// measured cost of the dictionary-encoded kernel but sits one to two
// orders of magnitude below what the string-keyed kernel spent, so a
// change that silently reintroduces per-row allocation fails loudly.

func TestJoinAllocBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	r := benchRel(rng, "R", "AB", 1000, 100)
	s := benchRel(rng, "S", "BC", 1000, 100)
	// Warm the dictionary and the one-time lazy structures.
	Join(r, s)
	allocs := testing.AllocsPerRun(10, func() { Join(r, s) })
	// Measured ~380 allocs (output slab growth + build map); the old
	// kernel spent ~40000 on the same input.
	const budget = 1500
	if allocs > budget {
		t.Fatalf("Join allocates %.0f allocs/op, budget %d", allocs, budget)
	}
}

func TestParallelJoinAllocBudget(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(12))
	r := benchRel(rng, "R", "AB", 1000, 100)
	s := benchRel(rng, "S", "BC", 1000, 100)
	Join(r, s)
	allocs := testing.AllocsPerRun(10, func() { Join(r, s) })
	// The partitioned path adds per-partition maps, slabs, and
	// goroutine bookkeeping on top of the sequential cost.
	const budget = 3000
	if allocs > budget {
		t.Fatalf("parallel Join allocates %.0f allocs/op, budget %d", allocs, budget)
	}
}

func TestInsertRowDuplicateAllocBudget(t *testing.T) {
	r := New("R", SchemaFromString("AB"))
	rows := make([][]Value, 200)
	for i := range rows {
		rows[i] = []Value{Value(fmt.Sprintf("v%d", i)), Value(fmt.Sprintf("w%d", i))}
		r.InsertRow(rows[i])
	}
	// Re-inserting existing rows goes through the stack scratch, the
	// dictionary read path, and the index probe: zero heap allocations.
	allocs := testing.AllocsPerRun(20, func() {
		for _, row := range rows {
			r.InsertRow(row)
		}
	})
	if allocs != 0 {
		t.Fatalf("duplicate InsertRow allocates %.2f allocs per batch, want 0", allocs)
	}
}

func TestSemijoinAllocBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	r := benchRel(rng, "R", "AB", 1000, 100)
	s := benchRel(rng, "S", "BC", 1000, 100)
	Semijoin(r, s)
	allocs := testing.AllocsPerRun(10, func() { Semijoin(r, s) })
	const budget = 500
	if allocs > budget {
		t.Fatalf("Semijoin allocates %.0f allocs/op, budget %d", allocs, budget)
	}
}

func TestLoaderDictionaryHitAllocBudget(t *testing.T) {
	ld, ok := NewLoader(NewDict(), "R", []Attr{"B", "A"})
	if !ok {
		t.Fatal("NewLoader rejected distinct attributes")
	}
	rows := make([][][]byte, 200)
	for i := range rows {
		rows[i] = [][]byte{[]byte(fmt.Sprintf("w%d", i)), []byte(fmt.Sprintf("v%d", i%7))}
		if err := ld.Add(rows[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Every value is in the dictionary and every row in the relation:
	// Add costs map probes and an index lookup, no heap allocation.
	allocs := testing.AllocsPerRun(20, func() {
		for _, row := range rows {
			if err := ld.Add(row); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("Loader.Add on dictionary hits allocates %.2f allocs per batch, want 0", allocs)
	}
}
