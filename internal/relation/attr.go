// Package relation implements the relational substrate of the paper:
// attributes, relation schemes, tuples, relation states, and the algebra
// (natural join, Cartesian product, semijoin, projection, selection, and
// the set operations of Section 5).
//
// Terminology follows Tay, "On the Optimality of Strategies for Multiple
// Joins" (PODS 1990 / JACM 1993), Section 2: a relation scheme is a
// nonempty set of attributes, a tuple over a scheme maps each attribute to
// a domain element, and a relation state is a finite set of tuples.
//
// Values are symbolic (strings): the paper's cost measure τ counts tuples
// and never inspects domain contents, so a uniform symbolic domain loses
// nothing.
package relation

import (
	"sort"
	"strings"
)

// Attr is an attribute name (an element of the universe U in the paper).
type Attr string

// Value is a domain element. All domains share one symbolic value space.
type Value string

// Schema is a relation scheme: a set of attributes, stored sorted and
// deduplicated. The zero value is the empty scheme. Schemas are immutable
// by convention: all methods return new schemas and never mutate the
// receiver's backing array.
type Schema struct {
	attrs []Attr // sorted, no duplicates
}

// NewSchema builds a schema from the given attributes, sorting and
// deduplicating them.
func NewSchema(attrs ...Attr) Schema {
	if len(attrs) == 0 {
		return Schema{}
	}
	cp := make([]Attr, len(attrs))
	copy(cp, attrs)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	out := cp[:1]
	for _, a := range cp[1:] {
		if a != out[len(out)-1] {
			out = append(out, a)
		}
	}
	return Schema{attrs: out}
}

// SchemaFromString parses a compact scheme like "ABC" (one attribute per
// rune) used throughout the paper's examples: "ABC" means {A, B, C}.
func SchemaFromString(s string) Schema {
	attrs := make([]Attr, 0, len(s))
	for _, r := range s {
		attrs = append(attrs, Attr(r))
	}
	return NewSchema(attrs...)
}

// Attrs returns the schema's attributes in sorted order. The caller must
// not modify the returned slice.
func (s Schema) Attrs() []Attr { return s.attrs }

// Len reports the number of attributes in the schema.
func (s Schema) Len() int { return len(s.attrs) }

// Empty reports whether the schema has no attributes.
func (s Schema) Empty() bool { return len(s.attrs) == 0 }

// Contains reports whether a is an attribute of the schema.
func (s Schema) Contains(a Attr) bool {
	i := sort.Search(len(s.attrs), func(i int) bool { return s.attrs[i] >= a })
	return i < len(s.attrs) && s.attrs[i] == a
}

// Equal reports whether two schemas contain the same attributes.
func (s Schema) Equal(t Schema) bool {
	if len(s.attrs) != len(t.attrs) {
		return false
	}
	for i, a := range s.attrs {
		if t.attrs[i] != a {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every attribute of s is in t.
func (s Schema) SubsetOf(t Schema) bool {
	i, j := 0, 0
	for i < len(s.attrs) && j < len(t.attrs) {
		switch {
		case s.attrs[i] == t.attrs[j]:
			i++
			j++
		case s.attrs[i] > t.attrs[j]:
			j++
		default:
			return false
		}
	}
	return i == len(s.attrs)
}

// Overlaps reports whether s and t share at least one attribute. In the
// paper's terms, the schemes are "linked" when they overlap.
func (s Schema) Overlaps(t Schema) bool {
	i, j := 0, 0
	for i < len(s.attrs) && j < len(t.attrs) {
		switch {
		case s.attrs[i] == t.attrs[j]:
			return true
		case s.attrs[i] < t.attrs[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// Union returns the scheme s ∪ t.
func (s Schema) Union(t Schema) Schema {
	out := make([]Attr, 0, len(s.attrs)+len(t.attrs))
	i, j := 0, 0
	for i < len(s.attrs) && j < len(t.attrs) {
		switch {
		case s.attrs[i] == t.attrs[j]:
			out = append(out, s.attrs[i])
			i++
			j++
		case s.attrs[i] < t.attrs[j]:
			out = append(out, s.attrs[i])
			i++
		default:
			out = append(out, t.attrs[j])
			j++
		}
	}
	out = append(out, s.attrs[i:]...)
	out = append(out, t.attrs[j:]...)
	return Schema{attrs: out}
}

// Intersect returns the scheme s ∩ t.
func (s Schema) Intersect(t Schema) Schema {
	var out []Attr
	i, j := 0, 0
	for i < len(s.attrs) && j < len(t.attrs) {
		switch {
		case s.attrs[i] == t.attrs[j]:
			out = append(out, s.attrs[i])
			i++
			j++
		case s.attrs[i] < t.attrs[j]:
			i++
		default:
			j++
		}
	}
	return Schema{attrs: out}
}

// Minus returns the scheme s − t.
func (s Schema) Minus(t Schema) Schema {
	var out []Attr
	i, j := 0, 0
	for i < len(s.attrs) {
		switch {
		case j >= len(t.attrs) || s.attrs[i] < t.attrs[j]:
			out = append(out, s.attrs[i])
			i++
		case s.attrs[i] == t.attrs[j]:
			i++
			j++
		default:
			j++
		}
	}
	return Schema{attrs: out}
}

// String renders the schema in the paper's compact style when every
// attribute is a single rune ("ABC"), and as a braced list otherwise.
func (s Schema) String() string {
	compact := true
	for _, a := range s.attrs {
		if len(a) != 1 {
			compact = false
			break
		}
	}
	if compact {
		var b strings.Builder
		for _, a := range s.attrs {
			b.WriteString(string(a))
		}
		return b.String()
	}
	parts := make([]string, len(s.attrs))
	for i, a := range s.attrs {
		parts[i] = string(a)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// UnionSchemas returns the union of all given schemes (the ∪D of the
// paper, where D is a database scheme).
func UnionSchemas(schemes []Schema) Schema {
	var out Schema
	for _, s := range schemes {
		out = out.Union(s)
	}
	return out
}
