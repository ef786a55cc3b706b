package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"multijoin/internal/conditions"
	"multijoin/internal/database"
	"multijoin/internal/gen"
	"multijoin/internal/hypergraph"
	"multijoin/internal/relation"
	"multijoin/internal/semijoin"
)

// E-jointree exercises Section 5's redefinition of connectedness for
// α-acyclic schemes: a subset is connected iff it induces a subtree of
// some join tree, and linkage quantifies over sub-subsets. The paper's
// own remark — "E1 and E2 may have a common attribute even if they are
// not linked to each other" — is witnessed by the classic {AB, BC, ABC},
// and the payoff claim (α-acyclic + pairwise consistent ⟹ C4 under the
// new connectedness) is validated on reduced random acyclic databases.

func init() {
	register(Info{ID: "E-jointree", Paper: "Section 5: join-tree connectedness for α-acyclic schemes", Run: runJoinTree})
}

func runJoinTree(w io.Writer) Summary {
	var e expect
	header(w, "E-jointree", "connectedness via join trees (α-acyclic schemes)")

	// The paper's remark, witnessed.
	witness := database.New(
		relation.FromStrings("AB", "AB", "1 x"),
		relation.FromStrings("BC", "BC", "x 7"),
		relation.FromStrings("ABC", "ABC", "1 x 7"),
	)
	g := witness.Graph()
	abBC := hypergraph.Set(0b011)
	fmt.Fprintf(w, "{AB, BC, ABC}: {AB, BC} shares attribute B — ordinary-connected: %s, join-tree-connected: %s\n",
		boolMark(g.Connected(abBC)), boolMark(g.JTConnected(abBC)))
	fmt.Fprintf(w, "{AB} JT-linked to {BC}: %s   {AB} JT-linked to {BC, ABC}: %s (via ABC)\n",
		boolMark(g.JTLinked(hypergraph.Singleton(0), hypergraph.Singleton(1))),
		boolMark(g.JTLinked(hypergraph.Singleton(0), hypergraph.Set(0b110))))
	e.that(g.Connected(abBC))
	e.that(!g.JTConnected(abBC))
	e.that(!g.JTLinked(hypergraph.Singleton(0), hypergraph.Singleton(1)))
	e.that(g.JTLinked(hypergraph.Singleton(0), hypergraph.Set(0b110)))

	// C4 under the join-tree notion on reduced random acyclic databases.
	rng := rand.New(rand.NewSource(119))
	tw := table(w)
	fmt.Fprintln(tw, "scheme family\ttrials\tC4 (join-tree sense) holds")
	for _, family := range []string{"chain", "random acyclic"} {
		trials, holds := 0, 0
		for t := 0; t < 30; t++ {
			var db *database.Database
			if family == "chain" {
				db = gen.Uniform(rng, gen.Schemes(gen.Chain, 4), 5, 3)
			} else {
				db = gen.Uniform(rng, gen.RandomAcyclicSchemes(rng, 4), 5, 3)
			}
			red, err := semijoin.FullReduce(db, nil, nil)
			if err != nil {
				continue
			}
			reduced := red.Database
			ev := database.NewEvaluator(reduced)
			if !ev.ResultNonEmpty() {
				continue
			}
			trials++
			if e.that(conditions.CheckC4JoinTree(ev).Holds) {
				holds++
			}
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\n", family, trials, holds)
	}
	tw.Flush()
	fmt.Fprintln(w, "paper: §5 — with join-tree connectedness, every α-acyclic pairwise-consistent")
	fmt.Fprintln(w, "database satisfies C4; the {AB,BC,ABC} witness shows why the redefinition matters")
	return e.summary("join-tree connectedness: witness reproduced, C4 validated")
}
