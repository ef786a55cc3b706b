package relation

import "testing"

// FuzzJoinKernel feeds arbitrary byte-derived relation pairs through
// the optimized join kernel (both the sequential and the partitioned
// path) and the nested-loop oracle, and fails on any divergence, or on
// a row order other than the groupMap reference's (order_ref_test.go).
// The seed corpus lives under testdata/fuzz/FuzzJoinKernel.

// fuzzAttrPool is the attribute universe the fuzzer draws schemes
// from; a scheme byte is a bitmask over it.
const fuzzAttrPool = "ABCDEF"

func fuzzSchema(b byte) Schema {
	attrs := make([]Attr, 0, len(fuzzAttrPool))
	for i := 0; i < len(fuzzAttrPool); i++ {
		if b&(1<<i) != 0 {
			attrs = append(attrs, Attr(fuzzAttrPool[i]))
		}
	}
	return NewSchema(attrs...)
}

// fuzzRelation decodes data into rows of the given scheme: each row
// consumes schema.Len() bytes, each byte picking a value from a small
// domain (small so joins actually match). Every input is accepted; a
// zero-width scheme admits at most the empty row.
func fuzzRelation(name string, schema Schema, data []byte, maxRows int) *Relation {
	r := New(name, schema)
	w := schema.Len()
	if w == 0 {
		if len(data) > 0 && data[0]&1 == 1 {
			r.InsertRow(nil)
		}
		return r
	}
	for len(data) >= w && r.Size() < maxRows {
		row := make([]Value, w)
		for j := 0; j < w; j++ {
			row[j] = Value(rune('a' + data[j]%5))
		}
		data = data[w:]
		r.InsertRow(row)
	}
	return r
}

func FuzzJoinKernel(f *testing.F) {
	f.Add(byte(0x03), byte(0x06), []byte("abcabcaabbcc"))
	f.Add(byte(0x0f), byte(0x3c), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add(byte(0x01), byte(0x01), []byte("aaabbbccc"))
	f.Add(byte(0x00), byte(0x07), []byte("xyzxyz"))
	f.Add(byte(0x03), byte(0x0c), []byte("pqpqpqpq"))
	f.Fuzz(func(t *testing.T, sr, ss byte, data []byte) {
		half := len(data) / 2
		r := fuzzRelation("R", fuzzSchema(sr), data[:half], 64)
		s := fuzzRelation("S", fuzzSchema(ss), data[half:], 64)
		want := ReferenceJoin(r, s)

		got := Join(r, s)
		if !got.Equal(want) {
			t.Fatalf("sequential kernel diverges from oracle:\nr = %v\ns = %v\ngot %v\nwant %v",
				r, s, got, want)
		}
		schema, slab := refJoin(r, s, false)
		sameSlab(t, "sequential join", got, schema, slab)
		old := parallelJoinThreshold
		parallelJoinThreshold = 1
		got = Join(r, s)
		parallelJoinThreshold = old
		if !got.Equal(want) {
			t.Fatalf("partitioned kernel diverges from oracle:\nr = %v\ns = %v\ngot %v\nwant %v",
				r, s, got, want)
		}
		schema, slab = refJoin(r, s, true)
		sameSlab(t, "partitioned join", got, schema, slab)

		semi := Semijoin(r, s)
		if want := ReferenceSemijoin(r, s); !semi.Equal(want) {
			t.Fatalf("semijoin diverges from oracle:\nr = %v\ns = %v\ngot %v\nwant %v",
				r, s, semi, want)
		}
		sameSlab(t, "semijoin", semi, r.schema, refSemijoin(r, s))
	})
}
