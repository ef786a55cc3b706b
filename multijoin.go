package multijoin

import (
	"context"
	"math/big"
	"math/rand"

	"multijoin/internal/conditions"
	"multijoin/internal/core"
	"multijoin/internal/database"
	"multijoin/internal/fd"
	"multijoin/internal/gen"
	"multijoin/internal/guard"
	"multijoin/internal/hypergraph"
	"multijoin/internal/obs"
	"multijoin/internal/optimizer"
	"multijoin/internal/paperex"
	"multijoin/internal/relation"
	"multijoin/internal/semijoin"
	"multijoin/internal/setops"
	"multijoin/internal/strategy"
)

// Relational substrate (Section 2 of the paper).
type (
	// Attr is an attribute name.
	Attr = relation.Attr
	// Value is a domain element.
	Value = relation.Value
	// Schema is a relation scheme: a set of attributes.
	Schema = relation.Schema
	// Tuple maps attributes to values.
	Tuple = relation.Tuple
	// Relation is a named relation state over a scheme.
	Relation = relation.Relation
	// Database is the paper's 𝒟 = (D, D): schemes plus states.
	Database = database.Database
	// Evaluator sizes, materializes and memoizes R_D′ for subsets
	// D′ ⊆ D; it backs the cost function τ.
	Evaluator = database.Evaluator
	// Set is a subset of a database's relations, as a bitset over
	// relation indexes.
	Set = hypergraph.Set
)

// NewSchema builds a schema from attributes.
func NewSchema(attrs ...Attr) Schema { return relation.NewSchema(attrs...) }

// SchemaFromString parses a compact single-rune-attribute scheme ("ABC").
func SchemaFromString(s string) Schema { return relation.SchemaFromString(s) }

// NewRelation creates an empty relation state.
func NewRelation(name string, schema Schema) *Relation { return relation.New(name, schema) }

// RelationFromStrings builds a relation over a compact scheme from
// space-separated rows, e.g. RelationFromStrings("R1", "AB", "p 0", "q 0").
func RelationFromStrings(name, schema string, rows ...string) *Relation {
	return relation.FromStrings(name, schema, rows...)
}

// Join computes the natural join of two relation states.
func Join(r, s *Relation) *Relation { return relation.Join(r, s) }

// Semijoin computes r ⋉ s.
func Semijoin(r, s *Relation) *Relation { return relation.Semijoin(r, s) }

// Project computes π_X(r).
func Project(r *Relation, x Schema) *Relation { return relation.Project(r, x) }

// NewDatabase builds a database from relation states.
func NewDatabase(rels ...*Relation) *Database { return database.New(rels...) }

// NewEvaluator creates a memoizing subset evaluator for the database.
func NewEvaluator(db *Database) *Evaluator { return database.NewEvaluator(db) }

// Strategies (Section 2).
type (
	// Strategy is a join-order tree; internal nodes are the paper's
	// "steps".
	Strategy = strategy.Node
)

// Leaf returns the trivial strategy for relation index i.
func Leaf(i int) *Strategy { return strategy.Leaf(i) }

// Combine joins two sub-strategies into a step.
func Combine(l, r *Strategy) *Strategy { return strategy.Combine(l, r) }

// LeftDeep builds the linear strategy joining relations in the given
// order.
func LeftDeep(order ...int) *Strategy { return strategy.LeftDeep(order...) }

// EnumerateStrategies enumerates every strategy over the index set s,
// stopping early when fn returns false. The space holds (2k−3)!! trees
// for |s| = k.
func EnumerateStrategies(s Set, fn func(*Strategy) bool) { strategy.EnumerateAll(s, fn) }

// CountStrategies returns (2n−3)!!, the number of strategies for n
// relations — 15 for the paper's introductory four-relation example.
func CountStrategies(n int) *big.Int { return strategy.CountAll(n) }

// CountLinearStrategies returns n!/2 for n ≥ 2.
func CountLinearStrategies(n int) *big.Int { return strategy.CountLinear(n) }

// Pluck removes the subtree with index set target from the strategy
// (Figure 1 of the paper).
func Pluck(root *Strategy, target Set) (remainder, plucked *Strategy, err error) {
	return strategy.Pluck(root, target)
}

// Graft inserts sub above the node with index set above (Figure 2).
func Graft(root, sub *Strategy, above Set) (*Strategy, error) {
	return strategy.Graft(root, sub, above)
}

// Conditions (Sections 3 and 5).
type (
	// Condition identifies C1, C1′, C2, C3 or C4.
	Condition = conditions.Condition
	// ConditionReport is the outcome of checking one condition.
	ConditionReport = conditions.Report
	// ConditionWitness is a concrete violation.
	ConditionWitness = conditions.Witness
)

// The paper's conditions.
const (
	C1       = conditions.C1
	C1Strict = conditions.C1Strict
	C2       = conditions.C2
	C3       = conditions.C3
	C4       = conditions.C4
)

// CheckCondition evaluates one condition on the database.
func CheckCondition(ev *Evaluator, c Condition) ConditionReport { return conditions.Check(ev, c) }

// CheckAllConditions evaluates C1, C1′, C2, C3 and C4.
func CheckAllConditions(ev *Evaluator) []ConditionReport { return conditions.CheckAll(ev) }

// Optimizers.
type (
	// SearchSpace selects the strategy subspace an optimizer searches.
	SearchSpace = optimizer.Space
	// OptimizeResult is an optimization outcome.
	OptimizeResult = optimizer.Result
)

// The four searched subspaces, plus the yannakakis method label for the
// acyclic fast path (a derived join-tree plan, not a searched space).
const (
	SpaceAll        = optimizer.SpaceAll
	SpaceLinear     = optimizer.SpaceLinear
	SpaceNoCP       = optimizer.SpaceNoCP
	SpaceLinearNoCP = optimizer.SpaceLinearNoCP
	SpaceYannakakis = optimizer.SpaceYannakakis
)

// ErrEmptySpace reports that the requested subspace has no strategy for
// the scheme.
var ErrEmptySpace = optimizer.ErrEmptySpace

// Optimize returns a τ-optimum strategy within the subspace. On a
// guard-carrying evaluator the search charges the guard's budgets and a
// trip returns its typed error.
func Optimize(ev *Evaluator, space SearchSpace) (OptimizeResult, error) {
	return optimizer.Optimize(ev, space)
}

// Greedy runs the classic smallest-intermediate-result heuristic with
// the evaluator's guard trapped, so a trip returns its typed error — the
// last rung of the degradation ladder exhaustive → DP → greedy.
func Greedy(ev *Evaluator) (OptimizeResult, error) { return optimizer.Greedy(ev) }

// Analyzer (the paper's contribution, packaged).
type (
	// Analysis bundles the condition profile, the theorem certificates
	// and the per-subspace optima for a database.
	Analysis = core.Analysis
	// Certificate is a theorem-backed guarantee that a subspace
	// restriction is safe.
	Certificate = core.Certificate
	// TheoremID identifies Theorems 1–3.
	TheoremID = core.Theorem
)

// Theorem identifiers.
const (
	TheoremOne   = core.Theorem1
	TheoremTwo   = core.Theorem2
	TheoremThree = core.Theorem3
)

// Analyze checks the conditions, derives theorem certificates and
// optimizes in every applicable subspace, on the evaluator's memo and
// under its guard and recorder. Phases that trip a budget are recorded
// in the Analysis's Truncated list; the analysis fails outright only
// when not even the condition profile could be computed. Phase
// begin/end events, per-phase wall timers, and every evaluator and
// optimizer counter flow into the recorder.
func Analyze(ev *Evaluator) (*Analysis, error) { return core.AnalyzeEvaluator(ev) }

// VerifyCertificates cross-checks an analysis's certificates against its
// measured optima; nil means the theorems held on this instance.
func VerifyCertificates(a *Analysis) error { return core.VerifyCertificates(a) }

// AvoidCPRewrite pushes a strategy into the Cartesian-product-avoiding
// subspace; under C1 ∧ C2 (and R_D ≠ ∅) it never increases τ — the
// constructive content of Theorem 2.
func AvoidCPRewrite(ev *Evaluator, s *Strategy) *Strategy { return core.AvoidCPRewrite(ev, s) }

// LinearizeRewrite flattens a Cartesian-product-free strategy into a
// linear one; under C3 it never increases τ — the constructive content of
// Theorem 3 (Lemma 6).
func LinearizeRewrite(ev *Evaluator, s *Strategy) *Strategy { return core.LinearizeRewrite(ev, s) }

// Section 4 applications.
type (
	// FD is a functional dependency X → Y.
	FD = fd.FD
)

// ParseFD parses "AB->C".
func ParseFD(s string) (FD, error) { return fd.Parse(s) }

// Closure computes X⁺ under the dependencies.
func Closure(attrs Schema, fds []FD) Schema { return fd.Closure(attrs, fds) }

// IsSuperkey reports whether candidate keys scheme under the
// dependencies.
func IsSuperkey(candidate, scheme Schema, fds []FD) bool {
	return fd.IsSuperkey(candidate, scheme, fds)
}

// LosslessJoin runs the chase test for lossless decomposition.
func LosslessJoin(schemes []Schema, fds []FD) bool { return fd.LosslessJoin(schemes, fds) }

// AllJoinsOnSuperkeys reports the Section 4 condition implying C3.
func AllJoinsOnSuperkeys(db *Database, fds []FD) bool { return fd.AllJoinsOnSuperkeys(db, fds) }

// Section 5 substrate.

// PairwiseConsistent reports whether every linked pair of relations is
// consistent.
func PairwiseConsistent(db *Database) bool { return semijoin.PairwiseConsistent(db) }

// Acyclic fast path, governed.
type (
	// SemijoinReduction is a governed full reduction's outcome: the
	// reduced database, the join trees, and per-semijoin result sizes.
	SemijoinReduction = semijoin.Reduction
	// YannakakisEvaluation is a governed Yannakakis run: the reduction,
	// the full join, intermediate sizes and the equivalent binary
	// strategy.
	YannakakisEvaluation = semijoin.Evaluation
)

// FullReduce runs the Bernstein–Chiu full reducer on a component-wise
// α-acyclic database, one join tree per component, so
// unconnected-but-acyclic schemes reduce too. Every semijoin charges the
// guard; either g or rec may be nil.
func FullReduce(db *Database, g *Guard, rec *Recorder) (*SemijoinReduction, error) {
	return semijoin.FullReduce(db, g, rec)
}

// Yannakakis runs the acyclic fast path — component-wise full reduction
// then a bottom-up join along the same trees — under resource
// governance and observability. Either g or rec may be nil.
func Yannakakis(db *Database, g *Guard, rec *Recorder) (*YannakakisEvaluation, error) {
	return semijoin.YannakakisGuarded(db, g, rec)
}

// IntersectAll and UnionAll fold set operations over same-scheme
// relations (the Section 5 reinterpretation of strategies).
func IntersectAll(sets ...*Relation) *Relation { return setops.IntersectAll(sets...) }

// UnionAll folds ∪ over same-scheme relations.
func UnionAll(sets ...*Relation) *Relation { return setops.UnionAll(sets...) }

// Workload generation.
type (
	// SchemeShape selects a generated scheme topology.
	SchemeShape = gen.Shape
)

// Generated scheme topologies.
const (
	ShapeChain  = gen.Chain
	ShapeStar   = gen.Star
	ShapeCycle  = gen.Cycle
	ShapeClique = gen.Clique
)

// GenerateSchemes returns n relation schemes of the given shape.
func GenerateSchemes(shape SchemeShape, n int) []Schema { return gen.Schemes(shape, n) }

// GenerateUniform fills schemes with uniform random rows.
func GenerateUniform(rng *rand.Rand, schemes []Schema, rows, domain int) *Database {
	return gen.Uniform(rng, schemes, rows, domain)
}

// GenerateDiagonal builds a database whose every join is on superkeys,
// hence satisfying C3 (Section 4).
func GenerateDiagonal(rng *rand.Rand, schemes []Schema, universe int, keep float64) *Database {
	return gen.Diagonal(rng, schemes, universe, keep)
}

// GenerateZipf fills schemes with Zipf-skewed rows.
func GenerateZipf(rng *rand.Rand, schemes []Schema, rows, domain int, s float64) *Database {
	return gen.Zipf(rng, schemes, rows, domain, s)
}

// ExampleDatabase returns the paper's worked example i (1–5); it panics
// for other arguments.
func ExampleDatabase(i int) *Database {
	switch i {
	case 1:
		return paperex.Example1()
	case 2:
		return paperex.Example2()
	case 3:
		return paperex.Example3()
	case 4:
		return paperex.Example4()
	case 5:
		return paperex.Example5()
	}
	panic("multijoin: the paper has examples 1 through 5")
}

// ParseStrategy reads a strategy from a parenthesized expression over
// relation names, e.g. "((R1 R2) R3)" or "((R1⋈R2)⋈R3)".
func ParseStrategy(db *Database, src string) (*Strategy, error) {
	return strategy.Parse(db, src)
}

// EvaluationTrace is a step-by-step account of running a strategy.
type EvaluationTrace = strategy.Trace

// TraceEvaluation evaluates the strategy step by step, reporting each
// join's operand sizes, result size and structural classification.
func TraceEvaluation(ev *Evaluator, s *Strategy) EvaluationTrace {
	return strategy.TraceEvaluation(ev, s)
}

// OsbornStrategy reports whether every step of the strategy joins on a
// superkey of one side under the dependencies (Section 5).
func OsbornStrategy(db *Database, s *Strategy, fds []FD) bool {
	return fd.OsbornStrategy(db, s, fds)
}

// ExtensionJoinStrategy reports whether every step is a Honeyman
// extension join under the dependencies (Section 5).
func ExtensionJoinStrategy(db *Database, s *Strategy, fds []FD) bool {
	return fd.ExtensionJoinStrategy(db, s, fds)
}

// LosslessStrategy reports whether every step is a chase-certified
// lossless join under the dependencies (Section 5).
func LosslessStrategy(db *Database, s *Strategy, fds []FD) bool {
	return fd.LosslessStrategy(db, s, fds)
}

// Resource governance: budgets, cancellation and graceful degradation.
type (
	// Guard carries a context plus resource budgets (intermediate
	// tuples, examined states, join steps) through the engine; a nil
	// *Guard is a valid unlimited guard.
	Guard = guard.Guard
	// GuardLimits configures a Guard's budgets; zero values are
	// unlimited.
	GuardLimits = guard.Limits
	// BudgetError is the typed error for an exceeded budget, carrying
	// the resource, the spend, the limit and the phase that tripped.
	BudgetError = guard.BudgetError
	// CancelError is the typed error for evaluation cut short by the
	// guard's context; it unwraps to the context error.
	CancelError = guard.CancelError
	// PanicError is a panic recovered at a library boundary, carrying
	// the panic value and stack.
	PanicError = guard.PanicError
	// AnalysisTruncation records one analysis phase cut short by the
	// resource guard.
	AnalysisTruncation = core.Truncation
)

// Governance sentinels: ErrBudgetExceeded matches every budget trip via
// errors.Is; ErrFaultInjected is the deterministic fault-injection error.
var (
	ErrBudgetExceeded = guard.ErrBudgetExceeded
	ErrFaultInjected  = guard.ErrFaultInjected
)

// NewGuard creates a resource guard over ctx with the given limits; a
// nil ctx means context.Background(). Attach it to an evaluator with
// Evaluator.WithGuard.
func NewGuard(ctx context.Context, lim GuardLimits) *Guard { return guard.New(ctx, lim) }

// Tripped reports whether err is a resource-governance abort — a budget
// trip, a cancellation or an injected fault — as opposed to a semantic
// failure; callers use it to pick a degradation path.
func Tripped(err error) bool { return guard.Tripped(err) }

// Observability: metrics, structured tracing and profiling hooks.
type (
	// Recorder is the engine's nil-safe observability sink: named
	// counters, gauges and timers plus a bounded structured event
	// stream. A nil *Recorder is valid and records nothing.
	Recorder = obs.Recorder
	// MetricsSnapshot is a point-in-time copy of a recorder's metrics,
	// serializable as schema-versioned JSON.
	MetricsSnapshot = obs.Snapshot
	// EventTrace is the serializable structured event stream.
	EventTrace = obs.Trace
	// ObsEvent is one structured trace event (begin/end/point/step).
	ObsEvent = obs.Event
	// GuardSnapshot is the guard's atomic phase + spent/limit snapshot.
	GuardSnapshot = guard.Snapshot
	// GuardUsage is one spent/limit pair within a GuardSnapshot.
	GuardUsage = guard.Usage
)

// NewRecorder creates an observability recorder. Attach it to an
// evaluator with Evaluator.WithRecorder; every instrumented engine path
// then feeds it.
func NewRecorder() *Recorder { return obs.NewRecorder() }
