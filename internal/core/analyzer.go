// Package core is the executable form of the paper's contribution. Given
// a database, the Analyzer
//
//  1. checks the conditions C1, C1′, C2, C3 (and C4) of Sections 3 and 5,
//  2. applies Theorems 1–3 to certify which restricted strategy subspaces
//     are guaranteed to still contain a τ-optimum strategy, and
//  3. optionally cross-checks each certificate against exhaustive
//     optimization, so that the theory is continuously validated on the
//     instance at hand.
//
// The package also provides the constructive counterparts of the proofs:
// AvoidCPRewrite turns a strategy into one that avoids Cartesian products
// without increasing τ (the Lemma 2/3/4 transformation sequence behind
// Theorem 2), and LinearizeRewrite turns a Cartesian-product-free
// strategy into a linear one without increasing τ under C3 (the Lemma 6
// transfer argument behind Theorem 3).
package core

import (
	"fmt"

	"multijoin/internal/conditions"
	"multijoin/internal/database"
	"multijoin/internal/guard"
	"multijoin/internal/obs"
	"multijoin/internal/optimizer"
	"multijoin/internal/semijoin"
	"multijoin/internal/strategy"
)

// Theorem identifies one of the paper's three main results.
type Theorem int

const (
	// Theorem1: connected scheme, R_D ≠ ∅, C1′ ⟹ a τ-optimum *linear*
	// strategy does not use Cartesian products, so the linear-no-CP
	// subspace attains the linear optimum.
	Theorem1 Theorem = 1
	// Theorem2: connected scheme, R_D ≠ ∅, C1 ∧ C2 ⟹ some τ-optimum
	// strategy uses no Cartesian products, so the no-CP subspace attains
	// the global optimum.
	Theorem2 Theorem = 2
	// Theorem3: connected scheme, R_D ≠ ∅, C3 ⟹ some τ-optimum strategy
	// is linear and uses no Cartesian products, so the linear-no-CP
	// subspace attains the global optimum.
	Theorem3 Theorem = 3
)

// Certificate states that, by one of the paper's theorems, restricting
// the optimizer's search to Space is safe in the sense described by
// Guarantee.
type Certificate struct {
	Theorem   Theorem
	Space     optimizer.Space
	Guarantee string
}

// Profile is the database's condition profile.
type Profile struct {
	Connected      bool
	ResultNonEmpty bool
	Reports        []conditions.Report // C1, C1′, C2, C3, C4 in order
}

// Holds reports whether the given condition holds in the profile.
func (p Profile) Holds(c conditions.Condition) bool {
	for _, r := range p.Reports {
		if r.Cond == c {
			return r.Holds
		}
	}
	return false
}

// Truncation records a phase of the analysis that the resource guard
// cut short, together with the typed governance error that cut it.
type Truncation struct {
	Phase string
	Err   error
}

// Analysis is the Analyzer's output.
type Analysis struct {
	Profile      Profile
	Certificates []Certificate
	// Results holds one optimization result per subspace, in the order
	// SpaceAll, SpaceNoCP, SpaceLinear, SpaceLinearNoCP. Subspaces that
	// are empty for this scheme are skipped.
	Results []optimizer.Result
	// Truncated lists the phases cut short by the resource guard, in
	// execution order. Empty for ungoverned or within-budget runs; when
	// non-empty the analysis is partial and certificate verification
	// against measured optima may be impossible.
	Truncated []Truncation
	// Yannakakis reports the acyclic fast path's outcome — present only
	// when every component of the scheme is α-acyclic and the governed
	// reduction ran to completion. It is not a subspace optimum (the
	// join tree is derived, not searched), so it lives beside Results
	// rather than in them.
	Yannakakis *YannakakisResult
}

// YannakakisResult is the acyclic fast path's report: a full semijoin
// reduction along one GYO join tree per component, then a bottom-up
// join of the reduced relations along the same trees.
type YannakakisResult struct {
	// Strategy is the binary join-tree strategy the join phase follows
	// (leaves are original relation indexes); executing it on the
	// unreduced database yields the same R_D at binary-plan cost.
	Strategy *strategy.Node
	// Tau is Σ intermediate join sizes on the reduced database — the
	// quantity comparable with the subspace optima.
	Tau int
	// Intermediates holds the join-phase intermediate sizes in
	// evaluation order; after full reduction every within-component
	// intermediate is bounded by the component's output.
	Intermediates []int
	// MaxIntermediate is the largest entry of Intermediates (0 for a
	// single-relation database).
	MaxIntermediate int
	// Semijoins is the reduction program length 2·Σ(|component|−1), and
	// SemijoinTuples the tuples those semijoins materialized — exactly
	// what the reduction charged the guard's tuple ledger.
	Semijoins      int
	SemijoinTuples int
	// Output is the full join's size |R_D|.
	Output int
}

// Complete reports whether every phase of the analysis ran to the end.
func (a *Analysis) Complete() bool { return len(a.Truncated) == 0 }

// Result returns the optimization result for the given space, if present.
func (a *Analysis) Result(s optimizer.Space) (optimizer.Result, bool) {
	for _, r := range a.Results {
		if r.Space == s {
			return r, true
		}
	}
	return optimizer.Result{}, false
}

// AnalyzeEvaluator checks conditions, derives certificates and
// optimizes in every subspace, on a caller-supplied evaluator: the guard
// and recorder attached to it govern and observe the analysis, and a
// memo the caller has already filled is reused instead of being
// recomputed.
//
// Every phase — materializing R_D, checking conditions, optimizing each
// subspace — charges the guard, and a phase that trips a budget is
// recorded in the returned Analysis's Truncated list while the remaining
// phases are still attempted (a deadline kills them all quickly; an
// exhausted tuple budget often still lets the memo-backed phases
// finish). The analysis fails outright — a nil Analysis and the typed
// governance error — only when even the condition profile could not be
// computed, since nothing reportable exists at that point.
//
// The recorder (nil-safe) receives begin/end events, a span and a
// `phase.<name>` wall-time timer per analysis phase, plus every counter
// the instrumented evaluator and optimizers emit. The four subspace
// dynamic programs run one after another on the calling goroutine, each
// as its own `optimize:<space>` phase.
func AnalyzeEvaluator(ev *database.Evaluator) (*Analysis, error) {
	db := ev.Database()
	if err := db.Validate(); err != nil {
		return nil, err
	}
	g, rec := ev.Guard(), ev.Recorder()
	an := &Analysis{}

	endPhase := beginPhase(g, rec, "materialize")
	var nonEmpty bool
	if err := func() (err error) {
		defer guard.Trap(&err)
		nonEmpty = ev.ResultNonEmpty()
		return nil
	}(); err != nil {
		endPhase(err)
		return nil, err
	}
	endPhase(nil)

	endPhase = beginPhase(g, rec, "conditions")
	profile := Profile{Connected: db.Connected(), ResultNonEmpty: nonEmpty}
	if err := func() (err error) {
		defer guard.Trap(&err)
		profile.Reports = conditions.CheckAll(ev)
		return nil
	}(); err != nil {
		endPhase(err)
		return nil, err
	}
	endPhase(nil)
	an.Profile = profile
	an.Certificates = Certify(profile)

	for _, sp := range optimizer.DPSpaces() {
		phase := "optimize:" + sp.String()
		endPhase = beginPhase(g, rec, phase)
		res, err := optimizer.Optimize(ev, sp)
		endPhase(err)
		switch {
		case err == optimizer.ErrEmptySpace:
			// The scheme has no strategy in this space; nothing to report.
		case guard.Tripped(err):
			an.Truncated = append(an.Truncated, Truncation{Phase: phase, Err: err})
		case err != nil:
			return nil, err
		default:
			an.Results = append(an.Results, res)
		}
	}

	// The acyclic fast path: when every component of the scheme is
	// α-acyclic, run the governed semijoin reduction and Yannakakis join
	// as a fifth strategy space, reported beside the binary-plan optima.
	if db.Graph().AcyclicComponents() {
		phase := "optimize:" + optimizer.SpaceYannakakis.String()
		endPhase = beginPhase(g, rec, phase)
		yr, err := runYannakakis(db, g, rec)
		endPhase(err)
		switch {
		case guard.Tripped(err):
			an.Truncated = append(an.Truncated, Truncation{Phase: phase, Err: err})
		case err != nil:
			return nil, err
		default:
			an.Yannakakis = yr
		}
	}
	return an, nil
}

// AnalyzeEvaluatorSequential is AnalyzeEvaluator.
//
// Deprecated: AnalyzeEvaluator runs the subspaces one at a time; call it.
func AnalyzeEvaluatorSequential(ev *database.Evaluator) (*Analysis, error) {
	return AnalyzeEvaluator(ev)
}

// runYannakakis executes the governed reduction + join and folds the
// outcome into the analysis's report shape.
func runYannakakis(db *database.Database, g *guard.Guard, rec *obs.Recorder) (*YannakakisResult, error) {
	ev, err := semijoin.YannakakisGuarded(db, g, rec)
	if err != nil {
		return nil, err
	}
	output := 0
	if ev.Result != nil {
		output = ev.Result.Size()
	}
	semiTuples := 0
	for _, s := range ev.Reduction.Sizes {
		semiTuples += s
	}
	return &YannakakisResult{
		Strategy:        ev.Strategy,
		Tau:             ev.Tau(),
		Intermediates:   ev.JoinSizes,
		MaxIntermediate: ev.MaxIntermediate(),
		Semijoins:       ev.Reduction.Semijoins,
		SemijoinTuples:  semiTuples,
		Output:          output,
	}, nil
}

// beginPhase labels the guard and recorder with the phase, emits the
// begin event (carrying the guard's spend at the boundary, so per-phase
// consumption is the delta between successive events), starts the
// phase's wall timer, and returns the closer that emits the matching
// end event. Both g and rec may be nil. The phase also opens a span
// named `phase:<name>` (stack-parented, so phases nest under whatever
// request or phase span is already open on the recorder), and the
// closer stamps the span with the guard-ledger delta accumulated across
// the phase before ending it.
func beginPhase(g *guard.Guard, rec *obs.Recorder, name string) func(error) {
	g.SetPhase(name)
	rec.SetPhase(name)
	if rec == nil {
		return func(error) {}
	}
	snap := g.Snapshot()
	rec.Emit(obs.Event{Kind: "begin", Name: name,
		Tuples: snap.Tuples.Spent, States: snap.States.Spent, Steps: snap.Steps.Spent})
	sp := rec.StartSpan(obs.SpanPhase(name))
	watch := rec.Timer(obs.MetricPhaseWall(name)).Start()
	return func(err error) {
		after := g.Snapshot()
		e := obs.Event{Kind: "end", Name: name, DurNS: watch.Stop().Nanoseconds(),
			Tuples: after.Tuples.Spent, States: after.States.Spent, Steps: after.Steps.Spent}
		sp.AddDelta(after.Tuples.Spent-snap.Tuples.Spent,
			after.States.Spent-snap.States.Spent,
			after.Steps.Spent-snap.Steps.Spent)
		if err != nil {
			e.Err = err.Error()
			sp.Fail(err)
			if guard.Tripped(err) {
				rec.Counter(obs.MetricGuardTrips).Inc()
			}
		}
		sp.End()
		rec.Emit(e)
	}
}

// Certify derives the theorem certificates implied by a condition
// profile; it is pure so the randomized experiments can reuse it.
func Certify(p Profile) []Certificate {
	if !p.Connected || !p.ResultNonEmpty {
		return nil
	}
	var out []Certificate
	if p.Holds(conditions.C1Strict) {
		out = append(out, Certificate{
			Theorem: Theorem1,
			Space:   optimizer.SpaceLinearNoCP,
			Guarantee: "every τ-optimum linear strategy avoids Cartesian products; " +
				"searching linear-no-CP strategies attains the linear optimum",
		})
	}
	if p.Holds(conditions.C1) && p.Holds(conditions.C2) {
		out = append(out, Certificate{
			Theorem: Theorem2,
			Space:   optimizer.SpaceNoCP,
			Guarantee: "some τ-optimum strategy uses no Cartesian products; " +
				"searching no-CP strategies attains the global optimum",
		})
	}
	if p.Holds(conditions.C3) {
		out = append(out, Certificate{
			Theorem: Theorem3,
			Space:   optimizer.SpaceLinearNoCP,
			Guarantee: "some τ-optimum strategy is linear and uses no Cartesian products; " +
				"searching linear-no-CP strategies attains the global optimum",
		})
	}
	return out
}

// VerifyCertificates checks every certificate in the analysis against
// the measured optima, returning a descriptive error for the first
// violation. A nil return means the paper's theorems held on this
// instance — the cross-check run by the randomized validation
// experiments (E-thm1/2/3).
//
// On a truncated analysis (resource guard cut one or more optimizer
// phases) a certificate whose optima are missing is skipped rather than
// reported as an error: absence of evidence from a budgeted run is not
// a theorem violation.
func VerifyCertificates(a *Analysis) error {
	all, hasAll := a.Result(optimizer.SpaceAll)
	lin, hasLin := a.Result(optimizer.SpaceLinear)
	nocp, hasNoCP := a.Result(optimizer.SpaceNoCP)
	lnc, hasLNC := a.Result(optimizer.SpaceLinearNoCP)
	for _, c := range a.Certificates {
		switch c.Theorem {
		case Theorem1:
			if !hasLin || !hasLNC {
				if !a.Complete() {
					continue
				}
				return fmt.Errorf("theorem 1: missing optimization results")
			}
			if lnc.Cost != lin.Cost {
				return fmt.Errorf("theorem 1 violated: linear-no-CP optimum %d ≠ linear optimum %d",
					lnc.Cost, lin.Cost)
			}
		case Theorem2:
			if !hasAll || !hasNoCP {
				if !a.Complete() {
					continue
				}
				return fmt.Errorf("theorem 2: missing optimization results")
			}
			if nocp.Cost != all.Cost {
				return fmt.Errorf("theorem 2 violated: no-CP optimum %d ≠ global optimum %d",
					nocp.Cost, all.Cost)
			}
		case Theorem3:
			if !hasAll || !hasLNC {
				if !a.Complete() {
					continue
				}
				return fmt.Errorf("theorem 3: missing optimization results")
			}
			if lnc.Cost != all.Cost {
				return fmt.Errorf("theorem 3 violated: linear-no-CP optimum %d ≠ global optimum %d",
					lnc.Cost, all.Cost)
			}
		}
	}
	return nil
}
