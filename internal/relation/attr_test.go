package relation

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestNewSchemaSortsAndDedups(t *testing.T) {
	s := NewSchema("C", "A", "B", "A", "C")
	want := []Attr{"A", "B", "C"}
	got := s.Attrs()
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSchemaFromString(t *testing.T) {
	s := SchemaFromString("CBA")
	if s.String() != "ABC" {
		t.Fatalf("got %s, want ABC", s)
	}
	if s.Len() != 3 {
		t.Fatalf("len = %d, want 3", s.Len())
	}
}

func TestSchemaContains(t *testing.T) {
	s := SchemaFromString("ABD")
	for _, tc := range []struct {
		a    Attr
		want bool
	}{
		{"A", true}, {"B", true}, {"D", true},
		{"C", false}, {"E", false}, {"", false},
	} {
		if got := s.Contains(tc.a); got != tc.want {
			t.Errorf("Contains(%q) = %v, want %v", tc.a, got, tc.want)
		}
	}
}

func TestSchemaSetOps(t *testing.T) {
	tests := []struct {
		a, b                   string
		union, inter, minus    string
		overlaps, subset, eqAB bool
	}{
		{"ABC", "BCD", "ABCD", "BC", "A", true, false, false},
		{"AB", "CD", "ABCD", "", "AB", false, false, false},
		{"AB", "AB", "AB", "AB", "", true, true, true},
		{"A", "ABC", "ABC", "A", "", true, true, false},
		{"", "AB", "AB", "", "", false, true, false},
		{"ABC", "", "ABC", "", "ABC", false, false, false},
	}
	for _, tc := range tests {
		a, b := SchemaFromString(tc.a), SchemaFromString(tc.b)
		if got := a.Union(b).String(); got != tc.union && !(tc.union == "" && got == "{}") {
			t.Errorf("%s ∪ %s = %s, want %s", tc.a, tc.b, got, tc.union)
		}
		if got := a.Intersect(b); !got.Equal(SchemaFromString(tc.inter)) {
			t.Errorf("%s ∩ %s = %s, want %s", tc.a, tc.b, got, tc.inter)
		}
		if got := a.Minus(b); !got.Equal(SchemaFromString(tc.minus)) {
			t.Errorf("%s − %s = %s, want %s", tc.a, tc.b, got, tc.minus)
		}
		if got := a.Overlaps(b); got != tc.overlaps {
			t.Errorf("%s overlaps %s = %v, want %v", tc.a, tc.b, got, tc.overlaps)
		}
		if got := a.SubsetOf(b); got != tc.subset {
			t.Errorf("%s ⊆ %s = %v, want %v", tc.a, tc.b, got, tc.subset)
		}
		if got := a.Equal(b); got != tc.eqAB {
			t.Errorf("%s == %s = %v, want %v", tc.a, tc.b, got, tc.eqAB)
		}
	}
}

func TestUnionSchemas(t *testing.T) {
	u := UnionSchemas([]Schema{SchemaFromString("AB"), SchemaFromString("BC"), SchemaFromString("DE")})
	if u.String() != "ABCDE" {
		t.Fatalf("got %s, want ABCDE", u)
	}
	if got := UnionSchemas(nil); !got.Empty() {
		t.Fatalf("UnionSchemas(nil) = %s, want empty", got)
	}
}

func TestSchemaStringMultiChar(t *testing.T) {
	s := NewSchema("Student", "Course")
	if got := s.String(); got != "{Course,Student}" {
		t.Fatalf("got %q", got)
	}
}

// schemaFromMask builds a schema over attributes a..p from a bitmask, for
// property tests.
func schemaFromMask(mask uint16) Schema {
	var attrs []Attr
	for i := 0; i < 16; i++ {
		if mask&(1<<i) != 0 {
			attrs = append(attrs, Attr('a'+rune(i)))
		}
	}
	return NewSchema(attrs...)
}

func TestSchemaOpsMatchBitmaskSemantics(t *testing.T) {
	f := func(x, y uint16) bool {
		a, b := schemaFromMask(x), schemaFromMask(y)
		return a.Union(b).Equal(schemaFromMask(x|y)) &&
			a.Intersect(b).Equal(schemaFromMask(x&y)) &&
			a.Minus(b).Equal(schemaFromMask(x&^y)) &&
			a.Overlaps(b) == (x&y != 0) &&
			a.SubsetOf(b) == (x&^y == 0) &&
			a.Equal(b) == (x == y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSchemaAttrsSorted(t *testing.T) {
	f := func(x uint16) bool {
		attrs := schemaFromMask(x).Attrs()
		return sort.SliceIsSorted(attrs, func(i, j int) bool { return attrs[i] < attrs[j] })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
