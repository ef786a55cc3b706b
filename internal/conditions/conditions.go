// Package conditions implements exhaustive checkers for the paper's
// sufficient conditions C1, C1′ (Section 3), C2, C3 and C4 (Sections 3
// and 5), quantified — exactly as in the paper — over disjoint connected
// subsets of the database scheme. Each checker returns a Report carrying
// a concrete Witness for the first violation found, which is what the
// necessity examples (Examples 3–5) revolve around.
//
// The checkers are exponential in |D| by the nature of the definitions
// (they quantify over subsets); they are intended for the small databases
// on which exhaustive strategy optimization is feasible anyway.
package conditions

import (
	"fmt"

	"multijoin/internal/database"
	"multijoin/internal/hypergraph"
)

// Condition identifies one of the paper's conditions.
type Condition int

const (
	// C1: for all disjoint connected E, E1, E2 with E linked to E1 but
	// not to E2: τ(R_E ⋈ R_E1) ≤ τ(R_E ⋈ R_E2).
	C1 Condition = iota
	// C1Strict is C1′: as C1 with strict inequality.
	C1Strict
	// C2: for all disjoint connected linked E1, E2:
	// τ(R_E1 ⋈ R_E2) ≤ τ(R_E1) or τ(R_E1 ⋈ R_E2) ≤ τ(R_E2).
	C2
	// C3: as C2 with "and" in place of "or".
	C3
	// C4: for all disjoint connected linked E1, E2:
	// τ(R_E1 ⋈ R_E2) ≥ τ(R_E1) and τ(R_E1 ⋈ R_E2) ≥ τ(R_E2).
	C4
)

// String returns the paper's name for the condition.
func (c Condition) String() string {
	switch c {
	case C1:
		return "C1"
	case C1Strict:
		return "C1'"
	case C2:
		return "C2"
	case C3:
		return "C3"
	case C4:
		return "C4"
	}
	return fmt.Sprintf("Condition(%d)", int(c))
}

// Witness records a concrete violation of a condition: the subsets
// involved and the τ values that falsify the required inequality.
type Witness struct {
	Cond        Condition
	E, E1, E2   hypergraph.Set // E is unused (zero) for C2/C3/C4
	Left, Right int            // the τ values compared; meaning depends on Cond
}

// String formats the witness in the paper's τ notation.
func (w Witness) String() string {
	switch w.Cond {
	case C1, C1Strict:
		op := "≤"
		if w.Cond == C1Strict {
			op = "<"
		}
		return fmt.Sprintf("%s violated: E=%v E1=%v E2=%v: τ(R_E⋈R_E1)=%d, τ(R_E⋈R_E2)=%d (need %s)",
			w.Cond, w.E, w.E1, w.E2, w.Left, w.Right, op)
	case C2:
		return fmt.Sprintf("C2 violated: E1=%v E2=%v: τ(R_E1⋈R_E2)=%d exceeds both τ(R_E1) and τ(R_E2)",
			w.E1, w.E2, w.Left)
	case C3:
		return fmt.Sprintf("C3 violated: E1=%v E2=%v: τ(R_E1⋈R_E2)=%d > min operand τ=%d",
			w.E1, w.E2, w.Left, w.Right)
	case C4:
		return fmt.Sprintf("C4 violated: E1=%v E2=%v: τ(R_E1⋈R_E2)=%d < max operand τ=%d",
			w.E1, w.E2, w.Left, w.Right)
	}
	return "violation"
}

// Report is the result of checking one condition.
type Report struct {
	Cond    Condition
	Holds   bool
	Witness *Witness // nil when Holds
}

// Check evaluates the given condition on the evaluator's database.
func Check(ev *database.Evaluator, c Condition) Report {
	switch c {
	case C1:
		r, _ := checkC1(ev, true, false)
		return r
	case C1Strict:
		_, r := checkC1(ev, false, true)
		return r
	case C2:
		return checkPairwise(ev, C2)
	case C3:
		return checkPairwise(ev, C3)
	case C4:
		return checkPairwise(ev, C4)
	}
	panic("conditions: unknown condition")
}

// CheckAll evaluates every condition, returning reports keyed by
// condition in declaration order (C1, C1′, C2, C3, C4). C1 and C1′ are
// checked in one pass over their triples.
func CheckAll(ev *database.Evaluator) []Report {
	c1, c1Strict := checkC1(ev, true, true)
	out := []Report{c1, c1Strict}
	for _, c := range []Condition{C2, C3, C4} {
		out = append(out, Check(ev, c))
	}
	return out
}

// connectedSubsets returns all nonempty connected subsets of the full
// scheme, smallest masks first.
func connectedSubsets(g *hypergraph.Graph) []hypergraph.Set {
	return g.ConnectedSubsets(g.All())
}

// checkC1 checks C1 (wantC1) and C1′ (wantStrict) in one walk over the
// (E, E1, E2) triples, recording each condition's first witness. A C1
// witness (left > right) is also a C1′ witness (left ≥ right), so C1′'s
// first witness comes no later than C1's, and the walk stops once every
// wanted condition has one: the subsets it requests are a prefix of the
// order a lone C1 pass requests them in. The report of a condition not
// wanted is meaningless.
func checkC1(ev *database.Evaluator, wantC1, wantStrict bool) (c1, strict Report) {
	c1 = Report{Cond: C1, Holds: true}
	strict = Report{Cond: C1Strict, Holds: true}
	g := ev.Database().Graph()
	subs := connectedSubsets(g)
	for _, e := range subs {
		// A set disjoint from e is linked to it exactly when it meets
		// e's neighbours, so each candidate is tested against one mask.
		ne := g.Neighbors(e)
		for _, e1 := range subs {
			if !e1.Disjoint(e) || e1.Disjoint(ne) {
				continue
			}
			left := ev.JoinSize(e, e1)
			avoid := e.Union(e1).Union(ne)
			for _, e2 := range subs {
				if !e2.Disjoint(avoid) {
					continue
				}
				right := ev.JoinSize(e, e2)
				if left < right {
					continue
				}
				if strict.Holds {
					strict = Report{Cond: C1Strict, Holds: false, Witness: &Witness{
						Cond: C1Strict, E: e, E1: e1, E2: e2, Left: left, Right: right,
					}}
				}
				if left > right && c1.Holds {
					c1 = Report{Cond: C1, Holds: false, Witness: &Witness{
						Cond: C1, E: e, E1: e1, E2: e2, Left: left, Right: right,
					}}
				}
				if (!wantC1 || !c1.Holds) && (!wantStrict || !strict.Holds) {
					return c1, strict
				}
			}
		}
	}
	return c1, strict
}

func checkPairwise(ev *database.Evaluator, cond Condition) Report {
	g := ev.Database().Graph()
	subs := connectedSubsets(g)
	for i, e1 := range subs {
		for j, e2 := range subs {
			if i == j || !e1.Disjoint(e2) || !g.Linked(e1, e2) {
				continue
			}
			joined := ev.JoinSize(e1, e2)
			t1, t2 := ev.Size(e1), ev.Size(e2)
			switch cond {
			case C2:
				if joined > t1 && joined > t2 {
					return Report{Cond: cond, Holds: false, Witness: &Witness{
						Cond: cond, E1: e1, E2: e2, Left: joined, Right: min(t1, t2),
					}}
				}
			case C3:
				if joined > t1 || joined > t2 {
					return Report{Cond: cond, Holds: false, Witness: &Witness{
						Cond: cond, E1: e1, E2: e2, Left: joined, Right: min(t1, t2),
					}}
				}
			case C4:
				if joined < t1 || joined < t2 {
					return Report{Cond: cond, Holds: false, Witness: &Witness{
						Cond: cond, E1: e1, E2: e2, Left: joined, Right: max(t1, t2),
					}}
				}
			}
		}
	}
	return Report{Cond: cond, Holds: true}
}

// Verify recomputes the witness's inequality against an evaluator and
// reports whether it indeed violates the condition — a self-check used
// by tests and by callers that persist witnesses.
func (w Witness) Verify(ev *database.Evaluator) bool {
	g := ev.Database().Graph()
	switch w.Cond {
	case C1, C1Strict:
		if !g.Connected(w.E) || !g.Connected(w.E1) || !g.Connected(w.E2) {
			return false
		}
		if !w.E.Disjoint(w.E1) || !w.E.Disjoint(w.E2) || !w.E1.Disjoint(w.E2) {
			return false
		}
		if !g.Linked(w.E, w.E1) || g.Linked(w.E, w.E2) {
			return false
		}
		left := ev.JoinSize(w.E, w.E1)
		right := ev.JoinSize(w.E, w.E2)
		if left != w.Left || right != w.Right {
			return false
		}
		if w.Cond == C1 {
			return left > right
		}
		return left >= right
	case C2, C3, C4:
		if !g.Connected(w.E1) || !g.Connected(w.E2) ||
			!w.E1.Disjoint(w.E2) || !g.Linked(w.E1, w.E2) {
			return false
		}
		joined := ev.JoinSize(w.E1, w.E2)
		t1, t2 := ev.Size(w.E1), ev.Size(w.E2)
		switch w.Cond {
		case C2:
			return joined == w.Left && joined > t1 && joined > t2
		case C3:
			return joined == w.Left && (joined > t1 || joined > t2)
		default: // C4
			return joined == w.Left && (joined < t1 || joined < t2)
		}
	}
	return false
}
