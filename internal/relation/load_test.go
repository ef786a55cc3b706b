package relation

import (
	"reflect"
	"testing"
)

// TestLoaderMatchesInsert pins the Loader's interning order: rows given
// in a written order other than the schema's build the same dictionary,
// the same slab and the same row order as inserting them as tuples.
func TestLoaderMatchesInsert(t *testing.T) {
	written := []Attr{"C", "A", "B"}
	rows := [][]string{{"c1", "a1", "b1"}, {"c2", "a1", "b2"}, {"c1", "a1", "b1"}, {"x", "x", "c1"}}
	ld, ok := NewLoader(NewDict(), "R", written)
	if !ok {
		t.Fatal("NewLoader rejected distinct attributes")
	}
	want := NewIn(NewDict(), "R", NewSchema(written...))
	for _, row := range rows {
		vals := make([][]byte, len(row))
		tuple := Tuple{}
		for j, v := range row {
			vals[j] = []byte(v)
			tuple[written[j]] = Value(v)
		}
		if err := ld.Add(vals); err != nil {
			t.Fatal(err)
		}
		want.Insert(tuple)
	}
	got := ld.Relation()
	if !reflect.DeepEqual(got.data, want.data) || got.n != want.n {
		t.Fatalf("slab %v (%d rows), want %v (%d rows)", got.data, got.n, want.data, want.n)
	}
	if !reflect.DeepEqual(got.dict.vals, want.dict.vals) {
		t.Fatalf("dictionary %v, want %v", got.dict.vals, want.dict.vals)
	}
	if err := ld.Add([][]byte{[]byte("short")}); err == nil {
		t.Fatal("a row of the wrong width was accepted")
	}
	if _, ok := NewLoader(nil, "R", []Attr{"A", "A"}); ok {
		t.Fatal("NewLoader accepted a repeated attribute")
	}
}
