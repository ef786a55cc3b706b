package optimizer

import (
	"errors"
	"math/rand"
	"testing"

	"multijoin/internal/database"
	"multijoin/internal/hypergraph"
	"multijoin/internal/paperex"
	"multijoin/internal/relation"
	"multijoin/internal/strategy"
)

func TestOptimizeExample1AllSpaces(t *testing.T) {
	db := paperex.Example1()
	ev := database.NewEvaluator(db)
	tests := []struct {
		space Space
		want  int
	}{
		{SpaceAll, 546},        // S4 = (R1⋈R3)⋈(R2⋈R4)
		{SpaceNoCP, 549},       // S3 = (R1⋈R2)⋈(R3⋈R4)
		{SpaceLinear, 556},     // best linear (may use CPs)
		{SpaceLinearNoCP, 570}, // S1/S2
	}
	for _, tc := range tests {
		res, err := Optimize(ev, tc.space)
		if err != nil {
			t.Fatalf("%s: %v", tc.space, err)
		}
		if tc.space == SpaceLinear {
			// Don't hard-code the linear optimum; validate against brute
			// force below instead.
			continue
		}
		if res.Cost != tc.want {
			t.Errorf("%s: cost %d, want %d (strategy %s)",
				tc.space, res.Cost, tc.want, res.Strategy.Render(db))
		}
	}
}

func TestOptimizeExample5FindsBushyOptimum(t *testing.T) {
	db := paperex.Example5()
	ev := database.NewEvaluator(db)
	res, err := Optimize(ev, SpaceAll)
	if err != nil {
		t.Fatal(err)
	}
	want := strategy.Combine(
		strategy.Combine(strategy.Leaf(0), strategy.Leaf(1)),
		strategy.Combine(strategy.Leaf(2), strategy.Leaf(3)))
	if !res.Strategy.Equal(want) {
		t.Fatalf("optimum = %s, want (MS⋈SC)⋈(CI⋈ID)", res.Strategy.Render(db))
	}
	// The linear optimizer must do strictly worse here (Example 5's
	// point: C3 fails, so linear-only search misses the optimum).
	lin, err := Optimize(ev, SpaceLinear)
	if err != nil {
		t.Fatal(err)
	}
	if lin.Cost <= res.Cost {
		t.Fatalf("linear cost %d should exceed bushy optimum %d", lin.Cost, res.Cost)
	}
}

// bruteForce finds the cheapest cost in a space by enumeration.
func bruteForce(ev *database.Evaluator, space Space) (int, bool) {
	db := ev.Database()
	g := db.Graph()
	best := -1
	visit := func(n *strategy.Node) bool {
		if c := n.Cost(ev); best == -1 || c < best {
			best = c
		}
		return true
	}
	switch space {
	case SpaceAll:
		strategy.EnumerateAll(db.All(), visit)
	case SpaceLinear:
		strategy.EnumerateLinear(db.All(), visit)
	case SpaceNoCP:
		strategy.EnumerateAvoidCP(g, db.All(), visit)
	case SpaceLinearNoCP:
		strategy.EnumerateLinear(db.All(), func(n *strategy.Node) bool {
			if n.AvoidsCartesian(g) {
				return visit(n)
			}
			return true
		})
	}
	return best, best != -1
}

// randomDB builds a random database over a random connected-ish scheme.
func randomDB(rng *rand.Rand, n int) *database.Database {
	rels := make([]*relation.Relation, n)
	for i := 0; i < n; i++ {
		// Chain backbone with occasional extra shared attribute.
		attrs := []relation.Attr{
			relation.Attr(rune('A' + i)),
			relation.Attr(rune('A' + i + 1)),
		}
		if rng.Intn(3) == 0 {
			// Draw from earlier attributes only, so every scheme keeps
			// A_{i+1} as a unique member and schemes never collide.
			attrs = append(attrs, relation.Attr(rune('A'+rng.Intn(i+1))))
		}
		sch := relation.NewSchema(attrs...)
		r := relation.New("", sch)
		rows := 1 + rng.Intn(5)
		for k := 0; k < rows; k++ {
			tu := relation.Tuple{}
			for _, a := range sch.Attrs() {
				tu[a] = relation.Value(rune('0' + rng.Intn(3)))
			}
			r.Insert(tu)
		}
		rels[i] = r
	}
	return database.New(rels...)
}

func TestDPMatchesBruteForceAllSpaces(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	spaces := []Space{SpaceAll, SpaceLinear, SpaceNoCP, SpaceLinearNoCP}
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(3) // 3..5 relations
		db := randomDB(rng, n)
		ev := database.NewEvaluator(db)
		for _, sp := range spaces {
			want, ok := bruteForce(ev, sp)
			res, err := Optimize(ev, sp)
			if !ok {
				if !errors.Is(err, ErrEmptySpace) {
					t.Fatalf("trial %d %s: brute force empty but DP said %v", trial, sp, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, sp, err)
			}
			if res.Cost != want {
				t.Fatalf("trial %d %s: DP %d, brute force %d\n%v\nstrategy %s",
					trial, sp, res.Cost, want, db, res.Strategy)
			}
		}
	}
}

func TestOptimizeReturnsValidStrategyInSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 40; trial++ {
		db := randomDB(rng, 4)
		ev := database.NewEvaluator(db)
		g := db.Graph()
		for _, sp := range []Space{SpaceAll, SpaceLinear, SpaceNoCP, SpaceLinearNoCP} {
			res, err := Optimize(ev, sp)
			if errors.Is(err, ErrEmptySpace) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			s := res.Strategy
			if err := s.Validate(db.All()); err != nil {
				t.Fatalf("%s: invalid strategy: %v", sp, err)
			}
			if s.Set() != db.All() {
				t.Fatalf("%s: strategy does not cover the database", sp)
			}
			if got := s.Cost(ev); got != res.Cost {
				t.Fatalf("%s: reported cost %d, actual %d", sp, res.Cost, got)
			}
			switch sp {
			case SpaceLinear:
				if !s.IsLinear() {
					t.Fatalf("linear space returned bushy strategy %s", s)
				}
			case SpaceNoCP:
				if !s.AvoidsCartesian(g) {
					t.Fatalf("no-CP space returned %s with CPs", s)
				}
			case SpaceLinearNoCP:
				if !s.IsLinear() || !s.AvoidsCartesian(g) {
					t.Fatalf("linear-no-CP space returned %s", s)
				}
			}
		}
	}
}

func TestLinearNoCPEmptySpace(t *testing.T) {
	// Two multi-relation components: no linear strategy can evaluate both
	// individually, so the subspace is empty.
	db := database.New(
		relation.FromStrings("R1", "AB", "1 x"),
		relation.FromStrings("R2", "BC", "x 1"),
		relation.FromStrings("R3", "DE", "2 y"),
		relation.FromStrings("R4", "EF", "y 2"),
	)
	ev := database.NewEvaluator(db)
	_, err := Optimize(ev, SpaceLinearNoCP)
	if !errors.Is(err, ErrEmptySpace) {
		t.Fatalf("want ErrEmptySpace, got %v", err)
	}
	// But the bushy no-CP space is fine.
	if _, err := Optimize(ev, SpaceNoCP); err != nil {
		t.Fatalf("SpaceNoCP should succeed: %v", err)
	}
}

func TestSpaceContainments(t *testing.T) {
	// cost(All) ≤ cost(NoCP) ≤ cost(LinearNoCP) and
	// cost(All) ≤ cost(Linear) ≤ cost(LinearNoCP) whenever defined.
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		db := randomDB(rng, 4)
		ev := database.NewEvaluator(db)
		all, err := Optimize(ev, SpaceAll)
		if err != nil {
			t.Fatal(err)
		}
		lin, err := Optimize(ev, SpaceLinear)
		if err != nil {
			t.Fatal(err)
		}
		nocp, err := Optimize(ev, SpaceNoCP)
		if err != nil {
			t.Fatal(err)
		}
		if all.Cost > lin.Cost || all.Cost > nocp.Cost {
			t.Fatalf("trial %d: all=%d lin=%d nocp=%d", trial, all.Cost, lin.Cost, nocp.Cost)
		}
		lnc, err := Optimize(ev, SpaceLinearNoCP)
		if errors.Is(err, ErrEmptySpace) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if lin.Cost > lnc.Cost || nocp.Cost > lnc.Cost {
			t.Fatalf("trial %d: lin=%d nocp=%d lnc=%d", trial, lin.Cost, nocp.Cost, lnc.Cost)
		}
	}
}

func TestGreedy(t *testing.T) {
	db := paperex.Example1()
	ev := database.NewEvaluator(db)
	res := Greedy(ev)
	if res.Space != SpaceGreedy {
		t.Fatalf("greedy labeled its result %v, want %v", res.Space, SpaceGreedy)
	}
	if err := res.Strategy.Validate(db.All()); err != nil {
		t.Fatalf("greedy produced invalid strategy: %v", err)
	}
	if res.Strategy.Set() != db.All() {
		t.Fatal("greedy must cover the database")
	}
	all, _ := Optimize(ev, SpaceAll)
	if res.Cost < all.Cost {
		t.Fatalf("greedy %d beat the optimum %d", res.Cost, all.Cost)
	}
}

// TestGreedyLinkedTieBreak is the regression test for the documented
// tie-break: on equal join size a linked pair must beat an unlinked one.
// The fixture makes the first round a genuine tie — |R0 × R1| =
// |R0 ⋈ R2| = 4 — where (R0, R1) share no attribute and (R0, R2) share
// A. The lower-index-only rule picked the Cartesian product (R0 R1);
// the documented rule must pick (R0 R2) first.
func TestGreedyLinkedTieBreak(t *testing.T) {
	db := database.New(
		relation.FromStrings("R0", "A", "1", "2"),
		relation.FromStrings("R1", "B", "x", "y"),
		relation.FromStrings("R2", "AC", "1 p", "1 q", "2 r", "2 s"),
	)
	ev := database.NewEvaluator(db)
	s01 := ev.Size(hypergraph.Set(0b011))
	s02 := ev.Size(hypergraph.Set(0b101))
	if s01 != s02 {
		t.Fatalf("fixture broken: |R0⋈R1| = %d, |R0⋈R2| = %d, need a tie", s01, s02)
	}
	g := db.Graph()
	if g.Linked(hypergraph.Singleton(0), hypergraph.Singleton(1)) ||
		!g.Linked(hypergraph.Singleton(0), hypergraph.Singleton(2)) {
		t.Fatal("fixture broken: (R0,R1) must be unlinked and (R0,R2) linked")
	}
	res := Greedy(ev)
	want := strategy.Combine(strategy.Combine(strategy.Leaf(0), strategy.Leaf(2)), strategy.Leaf(1))
	if !res.Strategy.Equal(want) {
		t.Fatalf("greedy chose %s, want the linked pair first: %s",
			res.Strategy.Render(db), want.Render(db))
	}
}

func TestOptimizeRejectsMethodLabels(t *testing.T) {
	ev := database.NewEvaluator(paperex.Example1())
	for _, sp := range []Space{SpaceGreedy, SpaceExhaustive} {
		_, err := Optimize(ev, sp)
		if err == nil || errors.Is(err, ErrEmptySpace) {
			t.Fatalf("Optimize(%v) = %v, want a not-searchable error", sp, err)
		}
	}
}

func TestDPSpaces(t *testing.T) {
	want := []Space{SpaceAll, SpaceNoCP, SpaceLinear, SpaceLinearNoCP}
	got := DPSpaces()
	if len(got) != len(want) {
		t.Fatalf("DPSpaces = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DPSpaces[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestExhaustiveMatchesDP(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 20; trial++ {
		db := randomDB(rng, 4)
		ev := database.NewEvaluator(db)
		ex := Exhaustive(ev)
		if ex.Space != SpaceExhaustive {
			t.Fatalf("exhaustive labeled its result %v, want %v", ex.Space, SpaceExhaustive)
		}
		dp, err := Optimize(ev, SpaceAll)
		if err != nil {
			t.Fatal(err)
		}
		if ex.Cost != dp.Cost {
			t.Fatalf("trial %d: exhaustive %d, DP %d", trial, ex.Cost, dp.Cost)
		}
	}
}

func TestOptimizeSingleRelation(t *testing.T) {
	db := database.New(relation.FromStrings("R", "AB", "1 x"))
	ev := database.NewEvaluator(db)
	for _, sp := range []Space{SpaceAll, SpaceLinear, SpaceNoCP, SpaceLinearNoCP} {
		res, err := Optimize(ev, sp)
		if err != nil {
			t.Fatalf("%s: %v", sp, err)
		}
		if res.Cost != 0 || !res.Strategy.IsLeaf() {
			t.Fatalf("%s: trivial strategy expected, got %s cost %d", sp, res.Strategy, res.Cost)
		}
	}
}

func TestOptimizeRejectsInvalidDatabase(t *testing.T) {
	db := database.New() // empty scheme
	ev := database.NewEvaluator(db)
	if _, err := Optimize(ev, SpaceAll); err == nil {
		t.Fatal("empty database must be rejected")
	}
}

func TestSpaceString(t *testing.T) {
	for sp, want := range map[Space]string{
		SpaceAll: "all", SpaceLinear: "linear",
		SpaceNoCP: "no-cartesian", SpaceLinearNoCP: "linear-no-cartesian",
		SpaceGreedy: "greedy", SpaceExhaustive: "exhaustive",
	} {
		if sp.String() != want {
			t.Errorf("String(%d) = %q", int(sp), sp.String())
		}
	}
	if Space(9).String() == "" {
		t.Error("unknown space should format")
	}
}

func TestStatesReported(t *testing.T) {
	db := paperex.Example1()
	ev := database.NewEvaluator(db)
	res, err := Optimize(ev, SpaceAll)
	if err != nil {
		t.Fatal(err)
	}
	if res.States <= 0 {
		t.Fatal("States should be positive")
	}
	// For SpaceAll with n=4, the DP has at most 2^4−1−4 = 11 non-leaf
	// states.
	if res.States > 11 {
		t.Fatalf("States = %d, want ≤ 11", res.States)
	}
	_ = hypergraph.Set(0)
}

func TestSpaceSystems(t *testing.T) {
	if got := SpaceLinearNoCP.Systems(); len(got) != 2 || got[0] != "System R" {
		t.Fatalf("Systems = %v", got)
	}
	if SpaceAll.Systems() != nil {
		t.Fatal("the unrestricted space names no system")
	}
	if got := SpaceNoCP.Systems(); len(got) != 2 {
		t.Fatalf("Systems = %v", got)
	}
	if got := SpaceLinear.Systems(); len(got) != 1 || got[0] != "GAMMA" {
		t.Fatalf("Systems = %v", got)
	}
}
