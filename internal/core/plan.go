package core

import (
	"fmt"
	"strconv"
	"strings"

	"multijoin/internal/database"
	"multijoin/internal/relation"
	"multijoin/internal/strategy"
)

// Cacheable plan representation. A served system cannot afford to rerun
// the subset DP for every request, so an optimization outcome must be
// storable: a Plan is a name-free, index-based rendering of the strategy
// tree. A Fingerprint — hypergraph shape plus a statistics digest —
// identifies a database's shape and statistics, not its data: two
// databases with equal cardinalities and distinct counts share a
// fingerprint even when their joins differ, so their τ and their optimal
// plans can differ too. A plan cache must key by the data itself (serve
// digests the database's bytes).

// Fingerprint digests a database's shape and statistics.
type Fingerprint struct {
	// Shape digests the hypergraph: relation count and each relation's
	// attribute set, in scheme order. Names are deliberately excluded —
	// plans are index-based, so renaming relations does not invalidate
	// them.
	Shape uint64 `json:"shape"`
	// Stats digests per-relation cardinalities and per-attribute
	// distinct-value counts. A change to the data that keeps every one
	// of them leaves this digest where it was.
	Stats uint64 `json:"stats"`
}

// String renders the fingerprint as two fixed-width hex words, the form
// used in logs and cache-debug endpoints.
func (f Fingerprint) String() string {
	return fmt.Sprintf("%016x-%016x", f.Shape, f.Stats)
}

// FNV-1a, written out so the digest is pinned by this file rather than
// by hash/fnv internals staying stable across Go releases.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return (h ^ 0xFF) * fnvPrime // terminator so "ab","c" ≠ "a","bc"
}

func fnvInt(h uint64, v int) uint64 {
	return (h ^ uint64(uint32(v))) * fnvPrime
}

// FingerprintDB computes the database's fingerprint in one pass over
// the data, counting distinct values on the ID slabs. The statistics
// digested here are the uniform model's (cardinality, per-attribute
// distinct counts); the DP's exact τ and the histogram model read the
// data itself, so databases with equal fingerprints can still plan
// differently.
func FingerprintDB(db *database.Database) Fingerprint {
	shape := fnvInt(fnvOffset, db.Len())
	stats := fnvInt(fnvOffset, db.Len())
	var tally relation.Tally
	for i := 0; i < db.Len(); i++ {
		r := db.Relation(i)
		attrs := r.Schema().Attrs()
		shape = fnvInt(shape, len(attrs))
		for _, a := range attrs {
			shape = fnvString(shape, string(a))
		}
		stats = fnvInt(stats, r.Size())
		for col := range attrs {
			stats = fnvInt(stats, len(tally.Column(r, col)))
		}
	}
	return Fingerprint{Shape: shape, Stats: stats}
}

// Plan is the serializable, database-independent form of a chosen
// strategy: the join tree over relation indexes.
type Plan struct {
	// Expr is the strategy in index-based parenthesized form, e.g.
	// "((0 1) 2)" — name-free so it binds to any database with the same
	// relation count.
	Expr string `json:"expr"`
}

// EncodePlanExpr renders a strategy tree in the index-based form Plan
// stores: leaves are decimal relation indexes, steps are
// space-separated parenthesized pairs.
func EncodePlanExpr(n *strategy.Node) string {
	var b strings.Builder
	writePlanExpr(&b, n)
	return b.String()
}

func writePlanExpr(b *strings.Builder, n *strategy.Node) {
	if n.IsLeaf() {
		b.WriteString(strconv.Itoa(n.Set().First()))
		return
	}
	b.WriteByte('(')
	writePlanExpr(b, n.Left())
	b.WriteByte(' ')
	writePlanExpr(b, n.Right())
	b.WriteByte(')')
}

// Strategy rebinds the plan to a database, validating that the tree is
// well formed, covers every relation exactly once, and mentions no
// index outside the database. The input is untrusted (it may come from
// a cache shared with older processes), so every violation is an error,
// never a panic.
func (p Plan) Strategy(db *database.Database) (*strategy.Node, error) {
	node, rest, err := parsePlanExpr(p.Expr, db.Len())
	if err != nil {
		return nil, fmt.Errorf("core: plan %q: %w", p.Expr, err)
	}
	if strings.TrimSpace(rest) != "" {
		return nil, fmt.Errorf("core: plan %q: trailing input %q", p.Expr, rest)
	}
	if node.Set() != db.All() {
		return nil, fmt.Errorf("core: plan %q covers %v, not the whole database", p.Expr, node.Set())
	}
	return node, nil
}

// parsePlanExpr parses one term (a leaf index or a parenthesized pair)
// from the front of src, returning the unconsumed remainder.
func parsePlanExpr(src string, n int) (*strategy.Node, string, error) {
	src = strings.TrimLeft(src, " ")
	if src == "" {
		return nil, "", fmt.Errorf("unexpected end of expression")
	}
	if src[0] == '(' {
		left, rest, err := parsePlanExpr(src[1:], n)
		if err != nil {
			return nil, "", err
		}
		right, rest, err := parsePlanExpr(rest, n)
		if err != nil {
			return nil, "", err
		}
		rest = strings.TrimLeft(rest, " ")
		if rest == "" || rest[0] != ')' {
			return nil, "", fmt.Errorf("missing closing parenthesis")
		}
		if !left.Set().Disjoint(right.Set()) {
			return nil, "", fmt.Errorf("subtrees %v and %v overlap", left.Set(), right.Set())
		}
		return strategy.Combine(left, right), rest[1:], nil
	}
	end := 0
	for end < len(src) && src[end] >= '0' && src[end] <= '9' {
		end++
	}
	if end == 0 {
		return nil, "", fmt.Errorf("expected relation index at %q", src)
	}
	idx, err := strconv.Atoi(src[:end])
	if err != nil {
		return nil, "", err
	}
	if idx < 0 || idx >= n {
		return nil, "", fmt.Errorf("relation index %d out of range [0,%d)", idx, n)
	}
	return strategy.Leaf(idx), src[end:], nil
}
