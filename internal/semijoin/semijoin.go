// Package semijoin implements the Section 5 substrate: pairwise
// consistency, the Bernstein–Chiu full reducer for α-acyclic database
// schemes, and Yannakakis-style evaluation along a join tree. The paper
// uses these to satisfy condition C4 — every γ-acyclic (or, with the
// join-tree notion of connectedness, α-acyclic) pairwise-consistent
// database satisfies C4, making every strategy step monotone increasing —
// and the E-c4 and E-yannakakis experiments exercise exactly that.
//
// Every tuple-producing operation in this package is governed: semijoins
// and joins charge their result size and consistency fixpoint passes
// charge one state, all through one guard.YannakakisLedger, so the guard
// ledger and the plan.yannakakis.* counters reconcile exactly even on
// budget-tripped runs. Each operation has one entry point, which takes
// the guard and the recorder explicitly; either may be nil.
package semijoin

import (
	"errors"

	"multijoin/internal/database"
	"multijoin/internal/guard"
	"multijoin/internal/hypergraph"
	"multijoin/internal/obs"
	"multijoin/internal/relation"
	"multijoin/internal/strategy"
)

// ErrNotAcyclic is returned when a join tree is required but the database
// scheme is cyclic or unconnected.
var ErrNotAcyclic = errors.New("semijoin: database scheme has no join tree (cyclic or unconnected)")

// PairwiseConsistent reports whether every pair of relations in the
// database is consistent: r[R ∩ R′] = r′[R ∩ R′] for all pairs (the
// paper's Section 5, after Beeri et al.). Pairs with disjoint schemes are
// ignored.
func PairwiseConsistent(db *database.Database) bool {
	n := db.Len()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !db.Scheme(i).Overlaps(db.Scheme(j)) {
				continue
			}
			if !relation.Consistent(db.Relation(i), db.Relation(j)) {
				return false
			}
		}
	}
	return true
}

// Tree is a rooted join tree over database relation indexes. Order is
// the BFS order from Root (parents precede children) restricted to the
// tree's component, and Parent maps each member to its parent (-1 for
// the root and for relations outside the component). Both reduction
// sweeps and the Yannakakis join phase walk this one tree — it is
// computed once per reduction, never recomputed on the reduced scheme.
type Tree struct {
	Root   int
	Edges  []hypergraph.JoinTreeEdge
	Order  []int
	Parent []int
}

// Reduction is a governed full reduction's outcome: the reduced
// database, the join trees it was reduced along (one per connected
// component, in first-relation order), and the semijoin program's
// per-step result sizes in execution order (up sweep then down sweep,
// component by component).
type Reduction struct {
	Database *database.Database
	Trees    []Tree
	// Sizes holds each semijoin's result size in program order; its sum
	// is exactly what the reduction charged the guard's tuple ledger.
	Sizes []int
	// Semijoins is the executed program length, Σ 2·(|component|−1).
	Semijoins int
}

// Evaluation is a governed Yannakakis run: the reduction it started
// from, the full join R_D, the intermediate join sizes in evaluation
// order (cross-component products included), and the equivalent binary
// join-tree strategy over the original relation indexes.
type Evaluation struct {
	Reduction *Reduction
	Result    *relation.Relation
	JoinSizes []int
	Strategy  *strategy.Node
}

// Tau is the join phase's τ: the sum of intermediate join sizes, the
// quantity comparable with the binary-plan optima of the four subspaces.
func (e *Evaluation) Tau() int {
	sum := 0
	for _, s := range e.JoinSizes {
		sum += s
	}
	return sum
}

// MaxIntermediate is the largest intermediate join size (0 for a
// single-relation database). After a full reduction every intermediate
// is a subset of a projection of R_D, so this never exceeds the output
// size — the monotone-increasing regime of Section 5.
func (e *Evaluation) MaxIntermediate() int {
	max := 0
	for _, s := range e.JoinSizes {
		if s > max {
			max = s
		}
	}
	return max
}

// ops is the semijoin layer's charge point: the plan.yannakakis.*
// ledger plus the per-operation counters beside it.
type ops struct {
	ledger     guard.Ledger
	cSemijoins *obs.Counter
	cJoins     *obs.Counter
}

func newOps(g *guard.Guard, rec *obs.Recorder) *ops {
	return &ops{
		ledger:     guard.YannakakisLedger(g, rec),
		cSemijoins: rec.Counter(obs.MetricYannakakisSemijoins),
		cJoins:     rec.Counter(obs.MetricYannakakisJoins),
	}
}

// semijoin performs one governed semijoin a ⋉ b, charging the result
// size against the guard exactly like an evaluator join step.
func (o *ops) semijoin(a, b *relation.Relation) (*relation.Relation, error) {
	out := relation.Semijoin(a, b)
	o.cSemijoins.Inc()
	if err := o.ledger.ChargeEval(out.Size()); err != nil {
		return nil, err
	}
	return out, nil
}

// join performs one governed natural join, charging the result size.
func (o *ops) join(a, b *relation.Relation) (*relation.Relation, error) {
	out := relation.Join(a, b)
	o.cJoins.Inc()
	if err := o.ledger.ChargeEval(out.Size()); err != nil {
		return nil, err
	}
	return out, nil
}

// adjacency builds the deterministic neighbor lists both the reducer
// and the join phase traverse: neighbors appear in join-tree edge
// order, so the two phases visit children identically.
func adjacency(n int, edges []hypergraph.JoinTreeEdge) [][]int {
	adj := make([][]int, n)
	for _, e := range edges {
		adj[e.A] = append(adj[e.A], e.B)
		adj[e.B] = append(adj[e.B], e.A)
	}
	return adj
}

// buildTree roots a component's join tree at its lowest relation index
// and derives the shared BFS order.
func buildTree(n int, edges []hypergraph.JoinTreeEdge, members []int) Tree {
	t := Tree{Root: members[0], Edges: edges}
	t.Parent = make([]int, n)
	for i := range t.Parent {
		t.Parent[i] = -1
	}
	adj := adjacency(n, edges)
	seen := make([]bool, n)
	seen[t.Root] = true
	queue := []int{t.Root}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		t.Order = append(t.Order, cur)
		for _, nb := range adj[cur] {
			if !seen[nb] {
				seen[nb] = true
				t.Parent[nb] = cur
				queue = append(queue, nb)
			}
		}
	}
	return t
}

// treesFor computes one rooted join tree per connected component of the
// scheme, with edges in the database's global relation indexes. It is
// data-free — the catalog-side acyclicity check estimate-driven
// planning relies on — and fails with ErrNotAcyclic when any component
// is cyclic.
func treesFor(db *database.Database) ([]Tree, error) {
	g := db.Graph()
	comps := g.Components(db.All())
	trees := make([]Tree, 0, len(comps))
	for _, comp := range comps {
		idx := comp.Indexes()
		sub := db.Restrict(comp)
		edges, ok := sub.Graph().JoinTree()
		if !ok {
			return nil, ErrNotAcyclic
		}
		global := make([]hypergraph.JoinTreeEdge, len(edges))
		for i, e := range edges {
			global[i] = hypergraph.JoinTreeEdge{A: idx[e.A], B: idx[e.B]}
		}
		trees = append(trees, buildTree(db.Len(), global, idx))
	}
	return trees, nil
}

// reduceTree runs the Bernstein–Chiu semijoin program along one rooted
// tree over the shared states slice: a leaves-to-root sweep followed by
// a root-to-leaves sweep. Each semijoin's result size is appended to
// sizes (even when a later step trips), so the returned prefix always
// matches the guard's tuple ledger.
func reduceTree(states []*relation.Relation, t Tree, o *ops, sizes []int) ([]int, error) {
	// Up sweep: children into parents, deepest first.
	for i := len(t.Order) - 1; i > 0; i-- {
		c := t.Order[i]
		p := t.Parent[c]
		next, err := o.semijoin(states[p], states[c])
		if err != nil {
			return sizes, err
		}
		states[p] = next
		sizes = append(sizes, next.Size())
	}
	// Down sweep: parents into children, shallowest first.
	for _, c := range t.Order[1:] {
		p := t.Parent[c]
		next, err := o.semijoin(states[c], states[p])
		if err != nil {
			return sizes, err
		}
		states[c] = next
		sizes = append(sizes, next.Size())
	}
	return sizes, nil
}

// FullReduce runs the Bernstein–Chiu full-reducer semijoin program on a
// component-wise α-acyclic database under resource governance: along
// each connected component's join tree, a leaves-to-root sweep of
// semijoins followed by a root-to-leaves sweep. The trees are computed
// once and carried in the result, so the Yannakakis join phase walks the
// very same trees. Components share no attributes, so semijoins across
// them would be vacuous and none is issued. The reduced database is
// pairwise consistent and has the same full join R_D; the input database
// is not modified. Every semijoin charges the guard with its result size
// — a tripped budget surfaces as the typed governance error with the
// ledger equal to the sizes of the semijoins actually performed. An
// empty database or a cyclic component yields ErrNotAcyclic. Both g and
// rec may be nil.
func FullReduce(db *database.Database, g *guard.Guard, rec *obs.Recorder) (*Reduction, error) {
	if db.Len() == 0 {
		return nil, ErrNotAcyclic
	}
	trees, err := treesFor(db)
	if err != nil {
		return nil, err
	}
	o := newOps(g, rec)
	states := make([]*relation.Relation, db.Len())
	for i := range states {
		states[i] = db.Relation(i)
	}
	var sizes []int
	for _, t := range trees {
		sizes, err = reduceTree(states, t, o, sizes)
		if err != nil {
			return nil, err
		}
	}
	named := make([]*relation.Relation, len(states))
	for i, r := range states {
		named[i] = r.WithName(db.Relation(i).Name())
	}
	return &Reduction{
		Database:  database.New(named...),
		Trees:     trees,
		Sizes:     sizes,
		Semijoins: len(sizes),
	}, nil
}

// treeStrategy derives the binary strategy the join phase follows for
// one tree: a bottom-up fold that joins each subtree into its parent's
// accumulator in the shared traversal order.
func treeStrategy(n int, t Tree) *strategy.Node {
	adj := adjacency(n, t.Edges)
	var visit func(node, from int) *strategy.Node
	visit = func(node, from int) *strategy.Node {
		plan := strategy.Leaf(node)
		for _, nb := range adj[node] {
			if nb == from {
				continue
			}
			plan = strategy.Combine(plan, visit(nb, node))
		}
		return plan
	}
	return visit(t.Root, -1)
}

// JoinTreeStrategy builds the bottom-up join-tree strategy for a
// component-wise α-acyclic scheme without touching tuple data — the
// catalog-side entry point estimate-driven planning uses to cost the
// acyclic fast path from statistics alone. Components are combined
// left-to-right (those joins are necessarily Cartesian products).
func JoinTreeStrategy(db *database.Database) (*strategy.Node, error) {
	trees, err := treesFor(db)
	if err != nil {
		return nil, err
	}
	if len(trees) == 0 {
		return nil, ErrNotAcyclic
	}
	var plan *strategy.Node
	for _, t := range trees {
		node := treeStrategy(db.Len(), t)
		if plan == nil {
			plan = node
		} else {
			plan = strategy.Combine(plan, node)
		}
	}
	return plan, nil
}

// evaluate joins the reduced database bottom-up along the reduction's
// own trees, charging each intermediate.
func evaluate(red *Reduction, g *guard.Guard, rec *obs.Recorder) (*Evaluation, error) {
	o := newOps(g, rec)
	db := red.Database
	ev := &Evaluation{Reduction: red}
	var result *relation.Relation
	var plan *strategy.Node
	for _, t := range red.Trees {
		adj := adjacency(db.Len(), t.Edges)
		var verr error
		var visit func(node, from int) *relation.Relation
		visit = func(node, from int) *relation.Relation {
			acc := db.Relation(node)
			for _, nb := range adj[node] {
				if nb == from {
					continue
				}
				sub := visit(nb, node)
				if verr != nil {
					return nil
				}
				joined, err := o.join(acc, sub)
				if err != nil {
					verr = err
					return nil
				}
				ev.JoinSizes = append(ev.JoinSizes, joined.Size())
				acc = joined
			}
			return acc
		}
		acc := visit(t.Root, -1)
		if verr != nil {
			return nil, verr
		}
		node := treeStrategy(db.Len(), t)
		if result == nil {
			result, plan = acc, node
			continue
		}
		joined, err := o.join(result, acc)
		if err != nil {
			return nil, err
		}
		ev.JoinSizes = append(ev.JoinSizes, joined.Size())
		result = joined
		plan = strategy.Combine(plan, node)
	}
	ev.Result = result
	ev.Strategy = plan
	return ev, nil
}

// YannakakisGuarded evaluates the full join of a component-wise
// α-acyclic database under resource governance: a governed full
// reduction along one join tree per component, then a bottom-up join
// phase along the same trees, with component results combined by
// (vacuously governed) cross products. For a fully reduced database
// every within-component intermediate is bounded by the component's
// output — the monotone-increasing regime of Section 5 — and every
// semijoin and join charges the guard with its result size. The
// plan.yannakakis.wall timer records a sample only for a scheme that
// passed the acyclicity check.
func YannakakisGuarded(db *database.Database, g *guard.Guard, rec *obs.Recorder) (*Evaluation, error) {
	watch := rec.Timer(obs.MetricYannakakisWall).Start()
	red, err := FullReduce(db, g, rec)
	if errors.Is(err, ErrNotAcyclic) {
		return nil, err
	}
	defer watch.Stop()
	if err != nil {
		return nil, err
	}
	return evaluate(red, g, rec)
}

// ReduceToConsistency makes any database pairwise consistent by
// iterating semijoins between every linked pair to a fixpoint — a
// general (not acyclicity-requiring) reducer used to prepare C4
// experiment inputs on cyclic schemes. Unlike a full reducer it does
// not guarantee global consistency of the join, only pairwise
// consistency. The pass count is data-dependent and unbounded a priori,
// so every pass charges one guard state and polls the deadline, and
// every semijoin charges its result size: adversarial inputs trip the
// budget instead of iterating ungoverned. Both g and rec may be nil.
func ReduceToConsistency(db *database.Database, g *guard.Guard, rec *obs.Recorder) (*database.Database, error) {
	o := newOps(g, rec)
	cPasses := rec.Counter(obs.MetricYannakakisPasses)
	states := make([]*relation.Relation, db.Len())
	for i := range states {
		states[i] = db.Relation(i)
	}
	changed := true
	for changed {
		cPasses.Inc()
		if err := o.ledger.ChargeStates(1); err != nil {
			return nil, err
		}
		if err := g.Err(); err != nil {
			return nil, err
		}
		changed = false
		for i := range states {
			for j := range states {
				if i == j || !db.Scheme(i).Overlaps(db.Scheme(j)) {
					continue
				}
				next, err := o.semijoin(states[i], states[j])
				if err != nil {
					return nil, err
				}
				if next.Size() != states[i].Size() {
					states[i] = next
					changed = true
				}
			}
		}
	}
	named := make([]*relation.Relation, len(states))
	for i, r := range states {
		named[i] = r.WithName(db.Relation(i).Name())
	}
	return database.New(named...), nil
}

// SemijoinProgramSize reports the number of semijoins a full reducer
// issues for the database: 2·(|D|−1), the two sweeps along the join
// tree. Returns an error for schemes without a join tree.
func SemijoinProgramSize(db *database.Database) (int, error) {
	if _, ok := db.Graph().JoinTree(); !ok {
		return 0, ErrNotAcyclic
	}
	if db.Len() <= 1 {
		return 0, nil
	}
	return 2 * (db.Len() - 1), nil
}
