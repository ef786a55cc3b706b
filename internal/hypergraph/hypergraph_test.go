package hypergraph

import (
	"testing"

	"multijoin/internal/relation"
)

func graphOf(schemes ...string) *Graph {
	out := make([]relation.Schema, len(schemes))
	for i, s := range schemes {
		out[i] = relation.SchemaFromString(s)
	}
	return New(out)
}

func TestLinkedPaperExamples(t *testing.T) {
	// {ABC, BE, DF} is linked to {CG, GH} (via C), §2.
	g := graphOf("ABC", "BE", "DF", "CG", "GH")
	d1 := Set(0b00111) // ABC, BE, DF
	d2 := Set(0b11000) // CG, GH
	if !g.Linked(d1, d2) {
		t.Fatal("expected linked")
	}
	// {AB, BE, DF} is not linked to {CG, GH}.
	g2 := graphOf("AB", "BE", "DF", "CG", "GH")
	if g2.Linked(0b00111, 0b11000) {
		t.Fatal("expected not linked")
	}
}

func TestConnectedPaperExamples(t *testing.T) {
	// {ABC, BE, DF} is unconnected; {ABC, BE, AF, DF} is connected (§2).
	g := graphOf("ABC", "BE", "DF")
	if g.Connected(g.All()) {
		t.Fatal("{ABC,BE,DF} should be unconnected")
	}
	g2 := graphOf("ABC", "BE", "AF", "DF")
	if !g2.Connected(g2.All()) {
		t.Fatal("{ABC,BE,AF,DF} should be connected")
	}
}

func TestComponentsPaperExample(t *testing.T) {
	// Components of {ABC, BE, DF} are {ABC, BE} and {DF} (§2).
	g := graphOf("ABC", "BE", "DF")
	comps := g.Components(g.All())
	if len(comps) != 2 {
		t.Fatalf("got %d components", len(comps))
	}
	if comps[0] != 0b011 || comps[1] != 0b100 {
		t.Fatalf("components = %v", comps)
	}
	if g.ComponentCount(g.All()) != 2 {
		t.Fatal("component count wrong")
	}
}

func TestUnionOfLinkedSchemesCanStayUnconnected(t *testing.T) {
	// {ABC, BE, DF} ∪ {CG, GH} remains unconnected although the parts are
	// linked (§2: DF is isolated).
	g := graphOf("ABC", "BE", "DF", "CG", "GH")
	if g.Connected(g.All()) {
		t.Fatal("expected unconnected")
	}
	if g.ComponentCount(g.All()) != 2 {
		t.Fatalf("count = %d, want 2", g.ComponentCount(g.All()))
	}
}

func TestSingletonConnected(t *testing.T) {
	g := graphOf("AB", "CD")
	if !g.Connected(Singleton(0)) || !g.Connected(Singleton(1)) {
		t.Fatal("singletons are connected")
	}
	if g.Connected(0) {
		t.Fatal("empty set is not connected")
	}
}

func TestAttrs(t *testing.T) {
	g := graphOf("AB", "BC", "DE")
	if got := g.Attrs(0b011).String(); got != "ABC" {
		t.Fatalf("attrs = %s", got)
	}
	if got := g.Attrs(g.All()).String(); got != "ABCDE" {
		t.Fatalf("attrs = %s", got)
	}
}

func TestNeighbors(t *testing.T) {
	g := graphOf("AB", "BC", "CD", "EF")
	if got := g.Neighbors(Singleton(1)); got != 0b0101 {
		t.Fatalf("neighbors of BC = %v", got)
	}
	if got := g.Neighbors(Singleton(3)); got != 0 {
		t.Fatalf("neighbors of EF = %v", got)
	}
}

func TestConnectedSubsetsChain(t *testing.T) {
	// Chain AB−BC−CD: connected subsets are intervals: 6 of them
	// ({0},{1},{2},{01},{12},{012}).
	g := graphOf("AB", "BC", "CD")
	subs := g.ConnectedSubsets(g.All())
	if len(subs) != 6 {
		t.Fatalf("got %d connected subsets, want 6", len(subs))
	}
}

func TestConnectedSubsetsClique(t *testing.T) {
	// Clique on shared attribute: all 2^3−1 = 7 nonempty subsets connect.
	g := graphOf("AX", "BX", "CX")
	if got := len(g.ConnectedSubsets(g.All())); got != 7 {
		t.Fatalf("got %d, want 7", got)
	}
}

func TestAlphaAcyclic(t *testing.T) {
	tests := []struct {
		name    string
		schemes []string
		want    bool
	}{
		{"chain", []string{"AB", "BC", "CD"}, true},
		{"star", []string{"AB", "AC", "AD"}, true},
		{"triangle", []string{"AB", "BC", "CA"}, false},
		{"triangle+cover", []string{"AB", "BC", "CA", "ABC"}, true},
		{"single", []string{"ABC"}, true},
		{"cycle4", []string{"AB", "BC", "CD", "DA"}, false},
		{"paper-ex3", []string{"GS", "SC", "CL"}, true},
		{"paper-ex5", []string{"MS", "SC", "CI", "ID"}, true},
		{"unconnected-acyclic", []string{"AB", "BC", "DE"}, true},
	}
	for _, tc := range tests {
		g := graphOf(tc.schemes...)
		if got := g.AlphaAcyclic(); got != tc.want {
			t.Errorf("%s: AlphaAcyclic = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestJoinTreeChain(t *testing.T) {
	g := graphOf("AB", "BC", "CD")
	edges, ok := g.JoinTree()
	if !ok {
		t.Fatal("expected join tree")
	}
	if len(edges) != 2 {
		t.Fatalf("got %d edges", len(edges))
	}
}

func TestJoinTreeCycleFails(t *testing.T) {
	g := graphOf("AB", "BC", "CA")
	if _, ok := g.JoinTree(); ok {
		t.Fatal("triangle must not admit a join tree")
	}
}

func TestJoinTreeUnconnectedFails(t *testing.T) {
	g := graphOf("AB", "CD")
	if _, ok := g.JoinTree(); ok {
		t.Fatal("unconnected scheme must not admit a join tree here")
	}
}

func TestJoinTreeSingle(t *testing.T) {
	g := graphOf("AB")
	edges, ok := g.JoinTree()
	if !ok || len(edges) != 0 {
		t.Fatalf("single scheme: %v, %v", edges, ok)
	}
}

func TestJoinTreeSubtreeProperty(t *testing.T) {
	g := graphOf("ABC", "BCD", "CDE", "AF")
	edges, ok := g.JoinTree()
	if !ok {
		t.Fatal("expected join tree")
	}
	if !g.verifyJoinTree(edges) {
		t.Fatal("verify failed on returned tree")
	}
}

func TestGammaAcyclic(t *testing.T) {
	tests := []struct {
		name    string
		schemes []string
		want    bool
	}{
		{"chain", []string{"AB", "BC", "CD"}, true},
		{"star", []string{"XA", "XB", "XC"}, true},
		{"triangle", []string{"AB", "BC", "CA"}, false},
		// α-acyclic but γ-cyclic: the classic {AB, BC, ABC}.
		{"alpha-not-gamma", []string{"AB", "BC", "ABC"}, false},
		{"two-schemes", []string{"AB", "BC"}, true},
		{"single", []string{"ABC"}, true},
		{"cycle4", []string{"AB", "BC", "CD", "DA"}, false},
		{"unconnected", []string{"AB", "BC", "DE"}, true},
	}
	for _, tc := range tests {
		g := graphOf(tc.schemes...)
		if got := g.GammaAcyclic(); got != tc.want {
			t.Errorf("%s: GammaAcyclic = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestGammaImpliesAlpha(t *testing.T) {
	// Fagin: γ-acyclic ⟹ α-acyclic. Spot-check over a catalogue of
	// schemes (both acyclic and cyclic ones).
	catalogue := [][]string{
		{"AB", "BC", "CD"}, {"AB", "BC", "CA"}, {"AB", "BC", "ABC"},
		{"XA", "XB", "XC"}, {"AB", "BC", "CD", "DA"}, {"ABC", "BCD", "CDE"},
		{"AB", "CD", "EF"}, {"ABC", "CDE", "EFA"},
	}
	for _, schemes := range catalogue {
		g := graphOf(schemes...)
		if g.GammaAcyclic() && !g.AlphaAcyclic() {
			t.Errorf("%v: γ-acyclic but not α-acyclic", schemes)
		}
	}
}

func TestConnectedContaining(t *testing.T) {
	g := graphOf("AB", "BC", "CD")
	var count int
	g.ConnectedContaining(g.All(), 1, func(s Set) bool {
		if !s.Has(1) || !g.Connected(s) {
			t.Fatalf("bad subset %v", s)
		}
		count++
		return true
	})
	// Intervals containing index 1 in a 3-chain: {1},{01},{12},{012} = 4.
	if count != 4 {
		t.Fatalf("count = %d, want 4", count)
	}
}

func TestNewPanicsOnTooMany(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(make([]relation.Schema, 65))
}

func TestConnectedContainingSeedMatchesBruteForce(t *testing.T) {
	g := graphOf("AB", "BC", "CD", "CE", "FG")
	for seed := 0; seed < g.Len(); seed++ {
		want := map[Set]bool{}
		g.All().Subsets(func(s Set) bool {
			if s.Has(seed) && g.Connected(s) {
				want[s] = true
			}
			return true
		})
		got := map[Set]bool{}
		g.ConnectedContainingSeed(g.All(), seed, func(s Set) bool {
			if got[s] {
				t.Fatalf("seed %d: duplicate subset %v", seed, s)
			}
			got[s] = true
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d subsets, want %d", seed, len(got), len(want))
		}
		for s := range want {
			if !got[s] {
				t.Fatalf("seed %d: missing %v", seed, s)
			}
		}
	}
}

func TestConnectedContainingSeedEarlyStop(t *testing.T) {
	g := graphOf("AB", "BC", "CD")
	count := 0
	g.ConnectedContainingSeed(g.All(), 0, func(Set) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("early stop failed: %d", count)
	}
}

func TestConnectedSplitsMatchesFilteredPairs(t *testing.T) {
	g := graphOf("AB", "BC", "CD", "DE")
	g.All().Subsets(func(s Set) bool {
		if !g.Connected(s) || s.Len() < 2 {
			return true
		}
		want := map[[2]Set]bool{}
		s.ProperSubsetPairs(func(a, b Set) bool {
			if g.Connected(a) && g.Connected(b) {
				want[[2]Set{a, b}] = true
			}
			return true
		})
		got := map[[2]Set]bool{}
		g.ConnectedSplits(s, func(a, b Set) bool {
			if got[[2]Set{a, b}] {
				t.Fatalf("duplicate split %v|%v of %v", a, b, s)
			}
			got[[2]Set{a, b}] = true
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("splits of %v: %d, want %d", s, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("missing split %v of %v", k, s)
			}
		}
		return true
	})
}

func TestConnectedSplitsOnUnconnectedOrSmall(t *testing.T) {
	g := graphOf("AB", "CD")
	called := false
	g.ConnectedSplits(g.All(), func(a, b Set) bool { called = true; return true })
	if called {
		t.Fatal("unconnected sets have no connected splits")
	}
	g2 := graphOf("AB", "BC")
	g2.ConnectedSplits(Singleton(0), func(a, b Set) bool { called = true; return true })
	if called {
		t.Fatal("singletons have no splits")
	}
}

func TestConnectedSplitsChainIsPolynomial(t *testing.T) {
	// A chain of k relations has exactly k−1 connected splits of the
	// full interval (cut points), not 2^(k−1)−1.
	schemes := make([]relation.Schema, 16)
	for i := range schemes {
		schemes[i] = relation.NewSchema(
			relation.Attr(rune('a'+i)), relation.Attr(rune('a'+i+1)))
	}
	g := New(schemes)
	count := 0
	g.ConnectedSplits(g.All(), func(a, b Set) bool {
		count++
		return true
	})
	if count != 15 {
		t.Fatalf("chain of 16 has %d connected splits, want 15", count)
	}
}

func TestBetaAcyclic(t *testing.T) {
	tests := []struct {
		name    string
		schemes []string
		want    bool
	}{
		{"chain", []string{"AB", "BC", "CD"}, true},
		{"star", []string{"XA", "XB", "XC"}, true},
		{"triangle", []string{"AB", "BC", "CA"}, false},
		// The classic separators of Fagin's hierarchy:
		{"beta-not-gamma", []string{"AB", "BC", "ABC"}, true},
		{"alpha-not-beta", []string{"AB", "BC", "CA", "ABC"}, false},
		{"single", []string{"ABC"}, true},
		{"unconnected", []string{"AB", "BC", "DE"}, true},
	}
	for _, tc := range tests {
		g := graphOf(tc.schemes...)
		if got := g.BetaAcyclic(); got != tc.want {
			t.Errorf("%s: BetaAcyclic = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestAcyclicityHierarchy(t *testing.T) {
	// Fagin: γ ⟹ β ⟹ α, with both inclusions strict (witnessed above).
	catalogue := [][]string{
		{"AB", "BC", "CD"}, {"AB", "BC", "CA"}, {"AB", "BC", "ABC"},
		{"AB", "BC", "CA", "ABC"}, {"XA", "XB", "XC"},
		{"ABC", "BCD", "CDE"}, {"AB", "CD", "EF"}, {"ABC", "CDE", "EFA"},
		{"AB", "BC", "CD", "DA"},
	}
	for _, schemes := range catalogue {
		g := graphOf(schemes...)
		gamma, beta, alpha := g.GammaAcyclic(), g.BetaAcyclic(), g.AlphaAcyclic()
		if gamma && !beta {
			t.Errorf("%v: γ-acyclic but not β-acyclic", schemes)
		}
		if beta && !alpha {
			t.Errorf("%v: β-acyclic but not α-acyclic", schemes)
		}
	}
}

// TestConnectivityQueriesDoNotAllocate pins the set iteration inside the
// connectivity queries to the bitmask itself: the condition checkers and
// the evaluator call them on every subset they touch.
func TestConnectivityQueriesDoNotAllocate(t *testing.T) {
	g := New(append(chainSchemes(8), starSchemes(8)...))
	chain, star := Full(8), Full(16).Minus(Full(8))
	for name, fn := range map[string]func(){
		"Linked":    func() { g.Linked(chain, star) },
		"Neighbors": func() { g.Neighbors(Set(0b1010_0101)) },
		"Connected": func() { g.Connected(chain) },
	} {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s allocates %.0f times per call, want 0", name, allocs)
		}
	}
}
