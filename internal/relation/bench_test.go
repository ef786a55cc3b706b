package relation

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchRel builds a relation with the given rows over domain values.
func benchRel(rng *rand.Rand, name, schema string, rows, domain int) *Relation {
	sch := SchemaFromString(schema)
	r := New(name, sch)
	for i := 0; i < rows; i++ {
		t := Tuple{}
		for _, a := range sch.Attrs() {
			t[a] = Value(fmt.Sprintf("v%d", rng.Intn(domain)))
		}
		r.Insert(t)
	}
	return r
}

func BenchmarkJoinBySelectivity(b *testing.B) {
	// Same input sizes, varying domain: small domains mean heavy fan-out.
	for _, domain := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("domain%d", domain), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			r := benchRel(rng, "R", "AB", 1000, domain)
			s := benchRel(rng, "S", "BC", 1000, domain)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Join(r, s)
			}
		})
	}
}

// BenchmarkJoinShape pins the build/probe side assignment: the kernel
// always builds on the smaller input, so probe-heavy (small build) and
// build-heavy (both sides large) stress different phases.
func BenchmarkJoinShape(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	shapes := []struct {
		name         string
		rRows, sRows int
		domain       int
	}{
		{"probe-heavy", 50, 5000, 100},
		{"build-heavy", 5000, 5000, 5000},
		{"product", 60, 60, 1000}, // unlinked handled by the same kernel
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			r := benchRel(rng, "R", "AB", sh.rRows, sh.domain)
			sSchema := "BC"
			if sh.name == "product" {
				sSchema = "CD"
			}
			s := benchRel(rng, "S", sSchema, sh.sRows, sh.domain)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Join(r, s)
			}
		})
	}
}

// BenchmarkJoinPaths joins the same inputs on the sequential path and on
// the partitioned path, forcing parallelJoinThreshold each way, so the
// two paths are compared on equal work. The domain is as wide as the
// inputs, so the output stays about as small as one input and the
// measurement weighs partitioning, building and probing rather than
// copying output.
func BenchmarkJoinPaths(b *testing.B) {
	for _, rows := range []int{4200, 20000} {
		rng := rand.New(rand.NewSource(9))
		r := benchRel(rng, "R", "AB", rows, rows)
		s := benchRel(rng, "S", "BC", rows, rows)
		for _, path := range []struct {
			name      string
			threshold int
		}{{"sequential", 1 << 30}, {"partitioned", 1}} {
			b.Run(fmt.Sprintf("rows%d/%s", rows, path.name), func(b *testing.B) {
				old := parallelJoinThreshold
				parallelJoinThreshold = path.threshold
				defer func() { parallelJoinThreshold = old }()
				if parts := Join(r, s).JoinPartitions(); (parts > 0) != (path.threshold == 1) {
					b.Fatalf("%s path joined in %d partitions", path.name, parts)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					Join(r, s)
				}
			})
		}
	}
}

func BenchmarkSemijoin(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	r := benchRel(rng, "R", "AB", 5000, 2000)
	s := benchRel(rng, "S", "BC", 5000, 2000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Semijoin(r, s)
	}
}

// BenchmarkSemijoinBySelectivity varies how much of r survives.
func BenchmarkSemijoinBySelectivity(b *testing.B) {
	for _, domain := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("domain%d", domain), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			r := benchRel(rng, "R", "AB", 2000, domain)
			s := benchRel(rng, "S", "BC", 2000, domain)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Semijoin(r, s)
			}
		})
	}
}

func BenchmarkProject(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	r := benchRel(rng, "R", "ABCD", 5000, 50)
	x := SchemaFromString("AC")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Project(r, x)
	}
}

func BenchmarkSetOperations(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	r := benchRel(rng, "R", "AB", 5000, 200)
	s := benchRel(rng, "S", "AB", 5000, 200)
	b.Run("union", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Union(r, s)
		}
	})
	b.Run("intersect", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Intersect(r, s)
		}
	})
	b.Run("difference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Difference(r, s)
		}
	})
}

func BenchmarkInsertDedup(b *testing.B) {
	sch := SchemaFromString("AB")
	rows := make([][]Value, 10000)
	rng := rand.New(rand.NewSource(5))
	for i := range rows {
		rows[i] = []Value{Value(fmt.Sprintf("v%d", rng.Intn(500))), Value(fmt.Sprintf("w%d", rng.Intn(500)))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := New("R", sch)
		for _, row := range rows {
			r.InsertRow(row)
		}
	}
}

// BenchmarkInsert pins the two insert regimes separately: all-fresh
// rows (every insert lands) and all-duplicate rows (every insert is
// rejected by the index — the zero-allocation path).
func BenchmarkInsert(b *testing.B) {
	sch := SchemaFromString("AB")
	fresh := make([][]Value, 5000)
	for i := range fresh {
		fresh[i] = []Value{Value(fmt.Sprintf("v%d", i)), Value(fmt.Sprintf("w%d", i))}
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := New("R", sch)
			for _, row := range fresh {
				r.InsertRow(row)
			}
		}
	})
	b.Run("duplicate", func(b *testing.B) {
		r := New("R", sch)
		for _, row := range fresh {
			r.InsertRow(row)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, row := range fresh {
				r.InsertRow(row)
			}
		}
	})
}
