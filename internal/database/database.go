// Package database defines the paper's database 𝒟 = (D, D): an ordered
// pair of a database scheme (a set of relation schemes) and a database
// state (a relation state per scheme). It also provides the Evaluator, a
// memoized materializer of R_D′ = ⋈_{R ∈ D′} R for subsets D′ ⊆ D, which
// underlies the cost function τ, the condition checkers of Section 3, and
// the subset dynamic programs of the optimizer package.
package database

import (
	"fmt"
	"strings"

	"multijoin/internal/hypergraph"
	"multijoin/internal/relation"
)

// Database is the paper's 𝒟 = (D, D). Relations are identified by their
// index; the scheme-level structure is exposed through Graph().
//
// The paper requires database schemes to be *sets* of relation schemes.
// We allow duplicate schemes (useful for the Section 5 union/intersection
// databases, which are multisets of one scheme) but the strategy results
// of Sections 3–4 are only claimed for databases whose schemes are
// pairwise distinct; Validate reports duplicates.
type Database struct {
	rels  []*relation.Relation
	graph *hypergraph.Graph
}

// New builds a database from relation states. The hypergraph over the
// schemes is precomputed.
func New(rels ...*relation.Relation) *Database {
	schemes := make([]relation.Schema, len(rels))
	for i, r := range rels {
		if r == nil {
			panic("database: nil relation")
		}
		schemes[i] = r.Schema()
	}
	return &Database{rels: rels, graph: hypergraph.New(schemes)}
}

// Len returns |D|, the number of relations.
func (d *Database) Len() int { return len(d.rels) }

// Relation returns the i-th relation state.
func (d *Database) Relation(i int) *relation.Relation { return d.rels[i] }

// Relations returns all relation states. The caller must not modify the
// returned slice.
func (d *Database) Relations() []*relation.Relation { return d.rels }

// Graph returns the scheme hypergraph.
func (d *Database) Graph() *hypergraph.Graph { return d.graph }

// All returns the full index set of the database scheme.
func (d *Database) All() hypergraph.Set { return d.graph.All() }

// Scheme returns the i-th relation scheme.
func (d *Database) Scheme(i int) relation.Schema { return d.graph.Scheme(i) }

// IndexOfName returns the index of the relation with the given name, or
// −1 if absent.
func (d *Database) IndexOfName(name string) int {
	for i, r := range d.rels {
		if r.Name() == name {
			return i
		}
	}
	return -1
}

// SetOf returns the subset selecting the named relations; it panics on an
// unknown name. A convenience for tests and examples that speak in the
// paper's relation names.
func (d *Database) SetOf(names ...string) hypergraph.Set {
	var s hypergraph.Set
	for _, n := range names {
		i := d.IndexOfName(n)
		if i < 0 {
			panic(fmt.Sprintf("database: no relation named %q", n))
		}
		s = s.Add(i)
	}
	return s
}

// Restrict returns the sub-database (D′, D′) for the subset s, preserving
// relation order.
func (d *Database) Restrict(s hypergraph.Set) *Database {
	idx := s.Indexes()
	rels := make([]*relation.Relation, len(idx))
	for i, j := range idx {
		rels[i] = d.rels[j]
	}
	return New(rels...)
}

// Validate checks structural sanity: nonempty scheme list, nonempty
// relation schemes, and pairwise-distinct schemes (the paper's D is a
// set). It returns a descriptive error for the first violation.
func (d *Database) Validate() error {
	if len(d.rels) == 0 {
		return fmt.Errorf("database: empty database scheme")
	}
	for i, r := range d.rels {
		if r.Schema().Empty() {
			return fmt.Errorf("database: relation %d (%s) has an empty scheme", i, r.Name())
		}
		for j, q := range d.rels[:i] {
			if q.Schema().Equal(r.Schema()) {
				return fmt.Errorf("database: relations %d and %d share scheme %s", j, i, r.Schema())
			}
		}
	}
	return nil
}

// Connected reports whether the database scheme D is connected.
func (d *Database) Connected() bool { return d.graph.Connected(d.All()) }

// String summarizes the database, one relation per line.
func (d *Database) String() string {
	var b strings.Builder
	for i, r := range d.rels {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%d: %s (%d tuples)", i, r.Schema(), r.Size())
		if r.Name() != "" {
			fmt.Fprintf(&b, " name=%s", r.Name())
		}
	}
	return b.String()
}
